package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls (the Tracer serializes, but scoped tracers share one sink)
// and must not reorder events. Close flushes buffered state; after Close,
// Emit is undefined.
type Sink interface {
	Emit(Event)
	Close() error
}

// NopSink discards everything. A Tracer built over it reports inactive,
// so emission sites skip event construction entirely — tracing "off"
// costs one branch per site.
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(Event) {}

// Close implements Sink.
func (NopSink) Close() error { return nil }

// JSONLSink writes one JSON object per line through a buffered writer.
// Emission holds a single mutex around an encode into the buffer — no
// syscall on the hot path; the buffer flushes at 64 KiB and on Close.
// Field order and float formatting come from encoding/json on the fixed
// Event struct, which is what makes equal event streams byte-identical.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewJSONL builds a JSONL sink over w. If w is also an io.Closer, Close
// closes it after flushing.
func NewJSONL(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 64<<10)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. The first write error sticks and is reported by
// Close; later events are dropped rather than panicking mid-run.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	if s.err == nil {
		s.err = s.enc.Encode(&e)
	}
	s.mu.Unlock()
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer, returning the first error seen.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	return s.err
}

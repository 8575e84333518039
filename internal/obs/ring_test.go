package obs

import "sync"

// RingSink keeps the last Cap events in memory: the tests' sink.
type RingSink struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
	total   int
}

// NewRing builds a ring sink holding up to cap events (min 1).
func NewRing(cap int) *RingSink {
	if cap < 1 {
		cap = 1
	}
	return &RingSink{buf: make([]Event, cap)}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	s.buf[s.next] = e
	s.next++
	s.total++
	if s.next == len(s.buf) {
		s.next = 0
		s.wrapped = true
	}
	s.mu.Unlock()
}

// Close implements Sink.
func (s *RingSink) Close() error { return nil }

// Events returns the retained events in emission order.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.wrapped {
		return append([]Event(nil), s.buf[:s.next]...)
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	return append(out, s.buf[:s.next]...)
}

// Total returns how many events were emitted (including evicted ones).
func (s *RingSink) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// OfType filters the retained events by type.
func (s *RingSink) OfType(t Type) []Event {
	var out []Event
	for _, e := range s.Events() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

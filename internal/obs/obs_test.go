package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Active() {
		t.Fatal("nil tracer reports active")
	}
	if tr.Sampled(0) {
		t.Fatal("nil tracer reports sampled")
	}
	tr.Emit(Event{Type: TypeIterStart}) // must not panic
	if tr.Scoped("x") != nil {
		t.Fatal("nil tracer Scoped returned non-nil")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
}

func TestNopTracerInactive(t *testing.T) {
	tr := New(NopSink{})
	if tr.Active() {
		t.Fatal("NopSink tracer reports active")
	}
	tr.Emit(Event{Type: TypeIterStart})
	tr2 := New(nil)
	if tr2.Active() {
		t.Fatal("nil-sink tracer reports active")
	}
}

func TestTracerSeqAndRun(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring, WithRun("r1"))
	tr.Emit(Event{Type: TypeRunStart})
	tr.Emit(Event{Type: TypeIterStart, Iter: 1})
	tr.Emit(Event{Type: TypeRunEnd, Iter: 1})
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq=%d, want %d", i, e.Seq, i+1)
		}
		if e.Run != "r1" {
			t.Fatalf("event %d run=%q, want r1", i, e.Run)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := New(NewRing(4), WithSample(10))
	for _, tc := range []struct {
		iter int
		want bool
	}{{0, true}, {1, false}, {9, false}, {10, true}, {25, false}, {30, true}} {
		if got := tr.Sampled(tc.iter); got != tc.want {
			t.Errorf("Sampled(%d)=%v, want %v", tc.iter, got, tc.want)
		}
	}
	if tr.sample != 10 {
		t.Fatalf("sample interval=%d, want 10", tr.sample)
	}
}

func TestScopedSharesSequence(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring, WithRun("parent"))
	a := tr.Scoped("run-a")
	b := tr.Scoped("run-b")
	a.Emit(Event{Type: TypeIterStart, Iter: 1})
	b.Emit(Event{Type: TypeIterStart, Iter: 1})
	a.Emit(Event{Type: TypeIterEnd, Iter: 1})
	tr.Emit(Event{Type: TypeRunEnd})
	evs := ring.Events()
	wantRuns := []string{"run-a", "run-b", "run-a", "parent"}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq=%d, want dense %d", i, e.Seq, i+1)
		}
		if e.Run != wantRuns[i] {
			t.Fatalf("event %d run=%q, want %q", i, e.Run, wantRuns[i])
		}
	}
}

func TestRunIDDeterministic(t *testing.T) {
	a := RunID(42, "mwu", "standard")
	b := RunID(42, "mwu", "standard")
	if a != b {
		t.Fatalf("RunID not deterministic: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("RunID length %d, want 16", len(a))
	}
	if RunID(43, "mwu", "standard") == a {
		t.Fatal("RunID ignores seed")
	}
	if RunID(42, "mwu", "slate") == a {
		t.Fatal("RunID ignores parts")
	}
	// Concatenation boundaries must matter.
	if RunID(42, "ab", "c") == RunID(42, "a", "bc") {
		t.Fatal("RunID ignores part boundaries")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := New(sink, WithRun("rt"))
	tr.Emit(Event{Type: TypeRunStart, Algo: "standard", K: 8, Agents: 4})
	tr.Emit(Event{Type: TypeProbe, Iter: 1, Slot: 2, Arm: 5})
	tr.Emit(Event{Type: TypeProbeDone, Iter: 1, Slot: 2, Arm: 5, Value: 0.75, Tick: 3})
	tr.Emit(Event{Type: TypeRunEnd, Iter: 1, Kind: "converged", Leader: 5, Prob: 0.9})
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 4 {
		t.Fatalf("validated %d events, want 4", n)
	}
	// Spot-check a decoded payload survives the trip.
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var e Event
	if err := json.Unmarshal(lines[2], &e); err != nil {
		t.Fatal(err)
	}
	if e.Value != 0.75 || e.Tick != 3 || e.Run != "rt" {
		t.Fatalf("round-trip mismatch: %+v", e)
	}
}

type errWriter struct{ failAfter int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.failAfter <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.failAfter--
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	// Tiny buffer is not possible (fixed 64KiB), so force the flush at
	// Close to fail and check the error surfaces there.
	sink := NewJSONL(&errWriter{failAfter: 0})
	sink.Emit(Event{Seq: 1, Type: TypeIterStart})
	if err := sink.Close(); err == nil {
		t.Fatal("Close swallowed the write error")
	}
}

func TestRingSinkWrap(t *testing.T) {
	ring := NewRing(3)
	for i := 1; i <= 5; i++ {
		ring.Emit(Event{Seq: uint64(i), Type: TypeIterStart, Iter: i})
	}
	if ring.Total() != 5 {
		t.Fatalf("Total=%d, want 5", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []int{3, 4, 5} {
		if evs[i].Iter != want {
			t.Fatalf("retained[%d].Iter=%d, want %d", i, evs[i].Iter, want)
		}
	}
	if got := ring.OfType(TypeIterStart); len(got) != 3 {
		t.Fatalf("OfType retained %d, want 3", len(got))
	}
	if got := ring.OfType(TypeRunEnd); len(got) != 0 {
		t.Fatalf("OfType(run_end) retained %d, want 0", len(got))
	}
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"garbage", "not json\n"},
		{"unknown field", `{"seq":1,"type":"iter_start","iter":0,"bogus":1}` + "\n"},
		{"unknown type", `{"seq":1,"type":"warp_drive","iter":0}` + "\n"},
		{"seq gap", `{"seq":1,"type":"iter_start","iter":0}` + "\n" + `{"seq":3,"type":"iter_end","iter":0}` + "\n"},
		{"seq from zero", `{"seq":0,"type":"iter_start","iter":0}` + "\n"},
		{"negative iter", `{"seq":1,"type":"iter_start","iter":-1}` + "\n"},
		{"missing type", `{"seq":1,"iter":0}` + "\n"},
	}
	for _, tc := range cases {
		if _, err := ValidateJSONL(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

func TestValidateJSONLSkipsBlankLines(t *testing.T) {
	in := `{"seq":1,"type":"run_start","iter":0}` + "\n\n" + `{"seq":2,"type":"run_end","iter":0}` + "\n"
	n, err := ValidateJSONL(strings.NewReader(in))
	if err != nil || n != 2 {
		t.Fatalf("got n=%d err=%v, want 2 events", n, err)
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mwu.iterations")
	c.Inc()
	c.Add(4)
	if r.Counter("mwu.iterations").Value() != 5 {
		t.Fatalf("counter=%d, want 5", c.Value())
	}
	c.Set(10)
	if c.Value() != 10 {
		t.Fatalf("Set: counter=%d, want 10", c.Value())
	}
	g := r.Gauge("mwu.entropy")
	g.Set(1.5)
	if r.Gauge("mwu.entropy").Value() != 1.5 {
		t.Fatalf("gauge=%v, want 1.5", g.Value())
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("probe.ticks", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count=%d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-111.5) > 1e-9 {
		t.Fatalf("sum=%v, want 111.5", h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("buckets shape: %v %v", bounds, counts)
	}
	// SearchFloat64s: ≤bound goes into that bucket (0.5,1→b0; 3→b1; 7→b2; 100→+Inf).
	want := []int64{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d=%d, want %d", i, counts[i], want[i])
		}
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.hits").Add(3)
	r.Gauge("b.load").Set(0.25)
	r.Histogram("c.lat", []float64{1}).Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a.hits"] != 3 || snap.Gauges["b.load"] != 0.25 || snap.Histograms["c.lat"].Count != 1 {
		t.Fatalf("snapshot mismatch: %s", buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hot").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{500}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("hot").Value() != 8000 {
		t.Fatalf("counter=%d, want 8000", r.Counter("hot").Value())
	}
	if r.Histogram("h", nil).Count() != 8000 {
		t.Fatalf("hist count=%d, want 8000", r.Histogram("h", nil).Count())
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy[float64](nil); got != 0 {
		t.Fatalf("Entropy(nil)=%v", got)
	}
	if got := Entropy([]float64{0, 0}); got != 0 {
		t.Fatalf("Entropy(zeros)=%v", got)
	}
	if got := Entropy([]float64{1, 0, 0}); got != 0 {
		t.Fatalf("Entropy(point mass)=%v", got)
	}
	uniform := Entropy([]float64{1, 1, 1, 1})
	if math.Abs(uniform-math.Log(4)) > 1e-12 {
		t.Fatalf("Entropy(uniform 4)=%v, want ln 4", uniform)
	}
	if got := Entropy([]int{2, 2, 2, 2}); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("Entropy(uniform 4)=%v, want ln 4", got)
	}
	// Skew lowers entropy.
	if Entropy([]float64{10, 1, 1, 1}) >= uniform {
		t.Fatal("skewed entropy not below uniform")
	}
}

func TestSupport(t *testing.T) {
	if got := Support([]float64{0, 1.5, 0, 0.1}); got != 2 {
		t.Fatalf("Support=%d, want 2", got)
	}
	if got := Support([]int{0, 3, 0, 0}); got != 1 {
		t.Fatalf("Support=%d, want 1", got)
	}
}

func TestShareHist(t *testing.T) {
	// One option at share 1 → bucket 0.
	h := ShareHist([]float64{5})
	if h[0] != 1 {
		t.Fatalf("point mass hist=%v", h)
	}
	// Four equal shares of 0.25: 2^-3 < 0.25 ≤ 2^-2 → bucket 2.
	h = ShareHist([]float64{1, 1, 1, 1})
	if h[2] != 4 {
		t.Fatalf("uniform-4 hist=%v, want 4 in bucket 2", h)
	}
	// Integer variant agrees.
	hi := ShareHist([]int{1, 1, 1, 1})
	for i := range h {
		if h[i] != hi[i] {
			t.Fatalf("float/int hist disagree: %v vs %v", h, hi)
		}
	}
	// Tiny shares land in the last bucket, not out of range.
	many := make([]float64, 4096)
	for i := range many {
		many[i] = 1
	}
	h = ShareHist(many)
	if h[ShareHistBuckets-1] != 4096 {
		t.Fatalf("tiny shares hist=%v", h)
	}
	if sum := func() (s int64) {
		for _, v := range ShareHist[float64](nil) {
			s += v
		}
		return
	}(); sum != 0 {
		t.Fatal("empty hist not all-zero")
	}
}

func TestDistinct(t *testing.T) {
	if got := Distinct([]int{3, 3, 1, 2, 3}); got != 3 {
		t.Fatalf("Distinct=%d, want 3", got)
	}
	if got := Distinct(nil); got != 0 {
		t.Fatalf("Distinct(nil)=%d, want 0", got)
	}
}

func TestStartDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	addr, closeFn, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()
	for _, path := range []string{"/debug/vars", "/debug/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/metrics" && !bytes.Contains(body, []byte(`"up": 1`)) {
			t.Fatalf("metrics body missing counter: %s", body)
		}
	}
}

func TestStartDebugServerBadAddr(t *testing.T) {
	if _, _, err := StartDebugServer("256.0.0.1:99999", nil); err == nil {
		t.Fatal("bad addr accepted")
	}
}

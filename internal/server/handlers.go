package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Handler builds the daemon's HTTP API over a manager:
//
//	POST   /v1/jobs            submit a job (202 + Status; 400/429/503)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}       job status + progress
//	DELETE /v1/jobs/{id}       cancel (202; 409 if finished)
//	GET    /v1/jobs/{id}/patch the repair patch (409 unfinished, 404 none)
//	GET    /v1/scenarios       the scenario registry
//	GET    /healthz            200 ok / 503 draining
//	GET    /debug/metrics      obs.Registry snapshot
//
// Unknown paths are 404; wrong methods on known paths are 405 (Go 1.22
// method patterns). The returned handler is wrapped in the standard
// middleware stack: request IDs, logging, panic recovery.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(m, w, r) })
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) { handleList(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleStatus(m, w, r) })
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleCancel(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/patch", func(w http.ResponseWriter, r *http.Request) { handlePatch(m, w, r) })
	mux.HandleFunc("GET /v1/scenarios", handleScenarios)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { handleHealthz(m, w, r) })
	mux.Handle("GET /debug/metrics", obs.MetricsHandler(m.Registry()))
	return Recover(RequestID(Logging(m.cfg.Logf, mux)), m.cfg.Logf)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSpecBytes bounds the POST body: a serialized program + suite is tens
// of kilobytes at most; a megabyte is already hostile.
const maxSpecBytes = 1 << 20

// retryAfter is the Retry-After value, in whole seconds, on 429 and 503
// responses: a client that honors it backs off instead of spinning.
const retryAfter = "1"

// decodeSpec reads one job spec, rejecting unknown fields.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"job spec exceeds the %d-byte limit", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	j, err := m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		// A draining daemon is often one instance of several behind a
		// balancer; give clients the same pacing hint as a full queue so
		// their retry loop backs off instead of spinning on 503s.
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.status())
}

// queryInt parses a non-negative integer query parameter, with def when
// absent.
func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("?%s must be a non-negative integer, got %q", name, s)
	}
	return v, nil
}

func handleList(m *Manager, w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs, total := m.JobsPage(offset, limit)
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	// The full table size, so a paginating client knows when to stop
	// without a count endpoint.
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	writeJSON(w, http.StatusOK, out)
}

func handleStatus(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func handleCancel(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := m.Cancel(id)
	switch {
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	j, _ := m.Get(id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// patchBody is the GET /v1/jobs/{id}/patch response: the mutation set
// and the repaired program.
type patchBody struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Patch    []struct {
		Op   int    `json:"op"`
		At   int    `json:"at"`
		From int    `json:"from,omitempty"`
		Sig  string `json:"sig"`
	} `json:"patch"`
	Program string `json:"program"`
}

func handlePatch(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !j.State().Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; no patch yet", j.ID, j.State())
		return
	}
	res := j.Result()
	if res == nil || !res.Repaired {
		writeError(w, http.StatusNotFound, "job %s found no repair", j.ID)
		return
	}
	body := patchBody{ID: j.ID, Scenario: j.Spec.subjectName(), Program: res.Program}
	for i, mu := range res.Patch {
		body.Patch = append(body.Patch, struct {
			Op   int    `json:"op"`
			At   int    `json:"at"`
			From int    `json:"from,omitempty"`
			Sig  string `json:"sig"`
		}{Op: int(mu.Op), At: mu.At, From: mu.From, Sig: res.PatchIDs[i]})
	}
	writeJSON(w, http.StatusOK, body)
}

// scenarioInfo is one GET /v1/scenarios entry.
type scenarioInfo struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	Options int    `json:"options"`
	Blocks  int    `json:"blocks"`
}

func handleScenarios(w http.ResponseWriter, _ *http.Request) {
	out := make([]scenarioInfo, 0, len(scenario.Registry))
	for _, p := range scenario.Registry {
		out = append(out, scenarioInfo{Name: p.Name, Family: p.FamilyName(), Options: p.Options, Blocks: p.Blocks})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleHealthz(m *Manager, w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"status": "ok"}
	if st := m.Store(); st != nil {
		body["store"] = st.Stats()
	}
	if m.Draining() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPlaceRequest feeds untrusted bodies to POST /v1/jobs through the
// server's handler, in-process. A fake scheduler accepts every job without
// running it, so only the request path runs: body limit, decoding, field
// checks, netlist validation and the cache key. No body may panic, and
// every answer is 202, 400 or 413.
func FuzzPlaceRequest(f *testing.F) {
	const maxBody = 1 << 12
	s := New(Config{MaxBodyBytes: maxBody})
	s.sched.Shutdown(context.Background())
	s.sched = &fakeScheduler{}
	h := s.Handler()

	f.Add([]byte(`{"netlist": {"name":"seed","cells":[{"name":"a","type":"DSP"},{"name":"b","type":"LUT"}],` +
		`"nets":[{"name":"n","driver":1,"sinks":[0]}]}, "flow": "vivado", "mcf_iters": 4, "rounds": 1, "seed": 1}`))
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	f.Add(append([]byte(`{"netlist": `), bytes.Repeat([]byte(" "), maxBody)...))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body.Bytes(), body)
		}
	})
}

package speard

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spear/internal/sched"
)

// FuzzSubmit drives arbitrary bodies through the POST /v1/sweeps
// decoder and admission path of a server over a static-suite scheduler.
// Every body must be answered with an admission status — 202 admitted,
// 200 coalesced, 400 rejected, 429 or 503 shed — and never with a panic
// or any other 5xx. Admitted jobs run in the background under a short
// deadline so a long fuzz session cannot pile up unbounded work.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"kernels":["mcf","field"],"seed":1}`,
		`{"kernels":["mcf"],"seed":1}`,
		`{"kernels":["alpha","beta"],"configs":["baseline","SPEAR-128"],"seed":2,"experiment":"fig6","deadline_ms":500,"client":"ci"}`,
		`{"kernels":["gen:1:b6_k8_l2_t6_i400_I150_m0.3_p2_c2_d0.4_B0.7_f0.15_C0.1_D32768_G400000"],"seed":1}`,
		`{"configs":["no-such-machine"]}`,
		`{"seed":"one"}`,
		`{"deadline_ms":-9223372036854775808}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	sc := sched.New(staticEngine(f, tinyOptions(), tinyLoop), sched.Config{
		Workers:         1,
		QueueDepth:      2,
		DefaultDeadline: time.Second,
		MaxDeadline:     time.Second,
	})
	f.Cleanup(sc.Close)
	h := New(sc, nil).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d, want 200, 202, 400, 429 or 503\n%s", body, rec.Code, rec.Body.Bytes())
		}
	})
}

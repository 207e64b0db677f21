package farm

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestBodiesStrictlyDecoded runs every JSON-body endpoint through
// the same table: a valid body (also with trailing whitespace) is
// accepted; an unknown field, a second JSON value, trailing garbage and
// malformed JSON are 400s; a body over maxRequestBytes is a 413. The
// valid completion answers the job the /v1/jobs case submits, so its
// trailing-whitespace repeat is a benign duplicate.
func TestRequestBodiesStrictlyDecoded(t *testing.T) {
	s, err := NewServerWith(t.TempDir(), ServerOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	h := s.Handler()
	cells, err := oneCellSpec().Cells()
	if err != nil {
		t.Fatal(err)
	}
	key, err := cells[0].Key()
	if err != nil {
		t.Fatal(err)
	}

	endpoints := []struct {
		path, valid string
		ok          int
	}{
		{"/v1/jobs", `{"litmus":{"tests":["SB"],"configs":["baseline"],"runs":1,"seed":3}}`, http.StatusAccepted},
		{"/v1/cells/lease", `{"worker":"w1","max":1}`, http.StatusOK},
		{"/v1/cells/heartbeat", `{"worker":"w1"}`, http.StatusOK},
		{"/v1/cells/complete", fmt.Sprintf(`{"worker":"w1","key":%q,"result":{"ok":true}}`, key), http.StatusOK},
	}
	oversize := `{"worker":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	for _, ep := range endpoints {
		cases := []struct {
			name, body string
			want       int
		}{
			{"valid", ep.valid, ep.ok},
			{"trailing whitespace", ep.valid + " \n", ep.ok},
			{"unknown field", strings.Replace(ep.valid, "{", `{"bogus":1,`, 1), http.StatusBadRequest},
			{"second value", ep.valid + ep.valid, http.StatusBadRequest},
			{"trailing garbage", ep.valid + " x", http.StatusBadRequest},
			{"malformed", ep.valid[:len(ep.valid)-1], http.StatusBadRequest},
			{"oversize", oversize, http.StatusRequestEntityTooLarge},
		}
		for _, tc := range cases {
			t.Run(ep.path+"/"+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(tc.body)))
				if rec.Code != tc.want {
					t.Fatalf("status %d, want %d (%s)", rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
				}
			})
		}
	}
}

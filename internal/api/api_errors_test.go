package api

// Error-path table tests: every failure must come back as the typed JSON
// envelope {"error":{"status":...,"message":...}} with the status chosen
// by the service layer's error kind — and conditional-request parsing
// must degrade to a full response, never to an error.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

func decodeErrorBody(t *testing.T, body string) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("response is not the JSON error envelope: %v\nbody: %s", err, body)
	}
	return eb
}

// longGrid renders the grid 1,2,...,n.
func longGrid(n int) string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(nodes, ",")
}

func TestErrorEnvelopeTable(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name       string
		path       string
		wantStatus int
		wantIn     string // substring of error.message
	}{
		{
			name:       "minnodes exceeds maxnodes",
			path:       "/api/v1/advice?minnodes=8&maxnodes=2",
			wantStatus: http.StatusBadRequest,
			wantIn:     "minnodes 8 exceeds maxnodes 2",
		},
		{
			name:       "non-integer node bound",
			path:       "/api/v1/advice?minnodes=lots",
			wantStatus: http.StatusBadRequest,
			wantIn:     `invalid minnodes "lots"`,
		},
		{
			name:       "unknown sort order",
			path:       "/api/v1/advice?sort=vibes",
			wantStatus: http.StatusBadRequest,
			wantIn:     "vibes",
		},
		{
			name:       "unknown plot name",
			path:       "/api/v1/plots/nonexistent.svg",
			wantStatus: http.StatusNotFound,
			wantIn:     "nonexistent",
		},
		{
			name:       "plot without svg suffix",
			path:       "/api/v1/plots/exectime",
			wantStatus: http.StatusNotFound,
			wantIn:     "exectime.svg",
		},
		{
			name:       "bad predict grid",
			path:       "/api/v1/predicted-advice?grid=0",
			wantStatus: http.StatusBadRequest,
			wantIn:     "grid",
		},
		{
			name:       "oversized predict grid",
			path:       "/api/v1/predicted-advice?grid=" + longGrid(1000),
			wantStatus: http.StatusBadRequest,
			wantIn:     "1000 node counts",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, ts, tc.path, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d\nbody: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error content-type %q, want application/json", ct)
			}
			eb := decodeErrorBody(t, body)
			if eb.Error.Status != tc.wantStatus {
				t.Fatalf("envelope status %d disagrees with HTTP status %d", eb.Error.Status, tc.wantStatus)
			}
			if !strings.Contains(eb.Error.Message, tc.wantIn) {
				t.Fatalf("error message %q does not mention %q", eb.Error.Message, tc.wantIn)
			}
		})
	}
}

// TestMalformedIfNoneMatch drives hostile and stale validators through the
// conditional-request path: none of them may 304 (serving nothing for a
// generation the client doesn't hold) or error — they fall through to a
// fresh 200 with the current ETag.
func TestMalformedIfNoneMatch(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := get(t, ts, "/api/v1/advice", nil)
	current := resp.Header.Get("ETag")
	if current == "" {
		t.Fatal("advice response missing ETag")
	}

	for _, inm := range []string{
		"garbage",
		`"`,
		`""`,
		`"g`,
		"g1",           // unquoted — not the tag we serve
		`"g999999999"`, // stale generation
		`W/`,
		", , ,",
		`"g1" extra tokens`,
		strings.Repeat("x", 4096),
	} {
		resp, body := get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("If-None-Match %q: status %d, want 200\nbody: %s", inm, resp.StatusCode, body)
		}
		if got := resp.Header.Get("ETag"); got != current {
			t.Fatalf("If-None-Match %q: ETag %q, want %q", inm, got, current)
		}
		if body == "" {
			t.Fatalf("If-None-Match %q: empty body on a 200", inm)
		}
	}

	// The well-formed validators still revalidate.
	for _, inm := range []string{current, "*", `W/` + current, `"other", ` + current} {
		resp, _ := get(t, ts, "/api/v1/advice", map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
	}
}

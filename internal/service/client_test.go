package service

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"
)

// newTestClient serves s's API on a loopback listener for the rest of the
// test and returns a client for it.
func newTestClient(t *testing.T, s *Server) *Client {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// TestAwaitFailsFast checks that Await ends at the first answer it cannot
// use instead of polling until its deadline: a 404 for an unknown job
// comes back as a *StatusError, and a 200 whose body is not a job view as
// the decode error.
func TestAwaitFailsFast(t *testing.T) {
	s := newTestServer(t, nil)
	defer s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	start := time.Now()
	_, err := newTestClient(t, s).Await(ctx, "j-999999")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("Await on an unknown id: %v, want status 404", err)
	}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not a job</html>"))
	}))
	defer garbage.Close()
	_, err = NewClient(garbage.URL).Await(ctx, "j-000001")
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		t.Fatalf("Await on an undecodable body: %v, want a JSON syntax error", err)
	}

	if ctx.Err() != nil || time.Since(start) > 5*time.Second {
		t.Fatalf("Await waited %v before failing", time.Since(start))
	}
}

// TestJobViewWireKeys pins JobView's JSON keys. Clients outside this
// package decode job views with their own structs (benchmark/daemon.go
// reads id, status, error, assert_failed and assert_total), so a renamed
// tag would otherwise surface only when they run.
func TestJobViewWireKeys(t *testing.T) {
	data, err := json.Marshal(JobView{
		ID:           "j-000001",
		Key:          "sha256:00",
		Status:       StatusFailed,
		Error:        "boom",
		Attempts:     2,
		CacheHit:     true,
		Artifacts:    []string{"metrics"},
		AssertFailed: 1,
		AssertTotal:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	want := []string{"artifacts", "assert_failed", "assert_total", "attempts", "cache_hit", "error", "id", "key", "status"}
	if got := slices.Sorted(maps.Keys(rec)); !slices.Equal(got, want) {
		t.Fatalf("job view keys %v, want %v (view %s)", got, want, data)
	}
}

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bionav/internal/obs"
)

func TestMiddlewareRecoversPanics(t *testing.T) {
	var buf bytes.Buffer
	srv := New(testDataset(), Config{Logger: obs.NewLogger(&buf, nil)})
	h := srv.observe(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("body = %q", body)
	}
	logLine := buf.String()
	if !strings.Contains(logLine, `"msg":"panic"`) || !strings.Contains(logLine, "kaboom") {
		t.Fatalf("log = %q", logLine)
	}
	if !strings.Contains(logLine, `"path":"/boom"`) {
		t.Fatalf("log missing path: %q", logLine)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" || !strings.Contains(logLine, `"request_id":"`+id+`"`) {
		t.Fatalf("log missing request id %q: %q", id, logLine)
	}
}

func TestMiddlewarePanicAfterWrite(t *testing.T) {
	// A handler that panics after writing must not corrupt the recorded
	// status or double-send headers.
	srv := New(testDataset(), Config{})
	h := srv.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want the already-sent 202", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("body %q appended after the sent headers", body)
	}
}

func TestMiddlewareNilLogger(t *testing.T) {
	// Without a logger a panic still answers 500; there is just no line.
	srv := New(testDataset(), Config{})
	h := srv.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("unlogged")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

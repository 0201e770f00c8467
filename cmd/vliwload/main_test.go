package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vliwq/internal/gateway"
	"vliwq/internal/service"
)

// TestRunAgainstGateway points the tool at a vliwgate fleet with
// verification requested and checks the report states that mode and adds
// the aggregated totals and the per-backend distribution.
func TestRunAgainstGateway(t *testing.T) {
	b1 := httptest.NewServer(service.New(service.Config{}).Handler())
	defer b1.Close()
	b2 := httptest.NewServer(service.New(service.Config{}).Handler())
	defer b2.Close()
	gw, err := gateway.New(gateway.Config{Backends: []string{b1.URL, b2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-concurrency", "4", "-n", "16",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, frag := range []string{
		"verify: on\n",
		"errors: 0 ",
		"gateway: 2 backends",
		"backend " + b1.URL,
		"backend " + b2.URL,
		"structural: hits=",
		"%)", // the distribution shares
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("gateway report missing %q:\n%s", frag, out)
		}
	}
}

// TestRunAgainstService drives a real in-process service and checks the
// report: the tool must complete requests, print throughput and latency
// percentiles, and exit 0.
func TestRunAgainstService(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-concurrency", "4", "-n", "8", "-verify=false",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, frag := range []string{"vliwload:", "verify: off\n", "throughput:", "latency: p50=", "cache hits=", "structural: hits="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
	if st := srv.Stats(); st.CompileRequests == 0 || st.Cache.Hits == 0 {
		t.Fatalf("server saw %d requests, %d cache hits — load never cycled the corpus", st.CompileRequests, st.Cache.Hits)
	}
}

func TestRunBatchMode(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-concurrency", "2", "-n", "8", "-batch", "4",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
	}
	if srv.Stats().BatchRequests == 0 {
		t.Fatal("batch mode never hit /batch")
	}
}

func TestRunFlagValidation(t *testing.T) {
	tests := [][]string{
		{"-bogus"},
		{"-concurrency", "0"},
		{"-n", "-1"},
		{"-duration", "0s"},
		{"-machine", "mesh:9"},
	}
	for _, args := range tests {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit code %d, want 2", args, code)
		}
	}
}

// TestRunUnreachableServer must fail fast and non-zero, not hang.
func TestRunUnreachableServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", "http://127.0.0.1:1", "-duration", "200ms", "-concurrency", "2", "-n", "4",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no successful requests") {
		t.Fatalf("stderr: %s", stderr.String())
	}
}

// TestRunShedIsNotFailure drives a server that sheds a third of its
// traffic with 429 and checks sheds land in their own counter: the report
// still says "errors: 0", the shed count is visible, and the exit status
// stays zero — admission control is not an outage.
func TestRunShedIsNotFailure(t *testing.T) {
	var calls, shed, deadlines atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if h := r.Header.Get(service.DeadlineHeader); h != "" {
			if _, err := time.ParseDuration(h); err != nil {
				t.Errorf("unparsable %s header %q", service.DeadlineHeader, h)
			}
			deadlines.Add(1)
		}
		if calls.Add(1)%3 == 0 {
			shed.Add(1)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"machine":"clustered:4"}`)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "200ms", "-concurrency", "2", "-n", "4",
		"-deadline", "2s",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("shed traffic produced exit code %d\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "errors: 0 ") {
		t.Fatalf("sheds counted as errors:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("shed=%d", shed.Load())) || shed.Load() == 0 {
		t.Fatalf("report missing shed=%d:\n%s", shed.Load(), out)
	}
	if deadlines.Load() == 0 {
		t.Fatalf("-deadline never reached the server as a %s header", service.DeadlineHeader)
	}
}

// TestRunBare503IsFailure: a 503 without Retry-After is a broken backend,
// not load shedding, and must keep failing the run.
func TestRunBare503IsFailure(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "200ms", "-concurrency", "2", "-n", "4",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("bare 503s produced exit code %d, want 1\nstdout: %s", code, stdout.String())
	}
}

// TestRunBatchSurfacesEntryErrors guards against /batch's 200-with-errors
// shape hiding a broken pipeline: a server whose entries all fail must
// produce a non-zero exit and failure counts, not a green report.
func TestRunBatchSurfacesEntryErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[{"error":"boom"},{"error":"boom"}]}`)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ts.URL, "-duration", "200ms", "-concurrency", "2", "-n", "4", "-batch", "2",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "(0 loops compiled)") {
		t.Fatalf("report counts failed entries as compiled:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "errors: ") || strings.Contains(stdout.String(), "errors: 0 ") {
		t.Fatalf("report missing a non-zero errors line:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "requests failed") {
		t.Fatalf("stderr missing the failure summary:\n%s", stderr.String())
	}
}

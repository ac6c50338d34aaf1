package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRetryAfterSecondsRoundsUp is the regression test for the
// truncated Retry-After hint: a fractional cooldown must round up so
// clients do not retry into a still-closed window.
func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{2500 * time.Millisecond, "3"},
		{3 * time.Second, "3"},
		{3*time.Second + time.Millisecond, "4"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// scrapeMetrics GETs /metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsExposesJobEvents runs a real campaign job to completion
// and checks its campaign counters appear as per-job event samples in
// the Prometheus text output, alongside the serve gauges.
func TestMetricsExposesJobEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, job := submit(t, ts, campaignReq(20))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	waitState(t, ts, job.ID, StateDone)

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE unsync_serve_inflight_jobs gauge",
		"# TYPE unsync_serve_breaker_state gauge",
		"unsync_serve_breaker_state 0",
		`unsync_serve_jobs{state="done"} 1`,
		"# TYPE unsync_job_event_total counter",
		`unsync_job_event_total{job="` + job.ID + `",event="CAMPAIGN.TRIALS"} 20`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// Every exposition line must be a comment or `name{labels} value` —
	// a cheap parse check that keeps the output scrapeable.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("unscrapeable metrics line %q", line)
		}
	}

	// POST must be rejected: the endpoint is read-only.
	post, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

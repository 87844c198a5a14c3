package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv := httptest.NewServer(NewMux(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, srv *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitDoneHTTP(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if st.State == StateDone {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

func TestHTTPSubmitStatusAndList(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	st, resp := postJob(t, srv, testSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q", loc)
	}
	final := waitDoneHTTP(t, srv, st.ID)
	if len(final.Blocks) != 1 || final.Blocks[0].FinalCycles <= 0 {
		t.Fatalf("bad result: %+v", final.Blocks)
	}

	resp2, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list: %+v", list.Jobs)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/metrics?format=dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var met obs.RegistryDump
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	metricSeries(t, met, "queue_depth")

	// The default exposition is Prometheus text and must validate.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("metrics Content-Type = %q, want %q", got, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("invalid Prometheus exposition: %v\n%s", err, raw)
	}
	for _, fam := range []string{"jobs_submitted_total", "queue_depth", "jobs_state_queued", "job_latency_seconds_bucket"} {
		if !strings.Contains(string(raw), fam) {
			t.Fatalf("exposition missing family %s:\n%s", fam, raw)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/nope", "", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/events", "", http.StatusNotFound},
		{"POST", "/v1/jobs", "{not json", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"bench":"crc32","machine":{"issue":2,"read_ports":4,"write_ports":2},"bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"machine":{"issue":2,"read_ports":4,"write_ports":2}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPRejectsBadParams: exploration parameters no engine can run with
// are a 400 at submission, and the daemon keeps serving afterwards. An
// unknown Priority used to reach the runner goroutine and panic the whole
// process; a huge Restarts sized a result slice from untrusted input.
func TestHTTPRejectsBadParams(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	for _, set := range []func(*core.Params){
		func(p *core.Params) { p.Priority = 9 },
		func(p *core.Params) { p.Restarts = core.MaxRestarts + 1 },
		func(p *core.Params) { p.Restarts = 1 << 40 },
	} {
		spec := testSpec(1)
		p := *spec.Params
		set(&p)
		spec.Params = &p
		if _, resp := postJob(t, srv, spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad params %+v: status %d, want 400", p, resp.StatusCode)
		}
	}
	st, resp := postJob(t, srv, testSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good job after bad ones: status %d, want 202", resp.StatusCode)
	}
	if final := waitDoneHTTP(t, srv, st.ID); len(final.Blocks) != 1 {
		t.Fatalf("good job after bad ones: %+v", final.Blocks)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	srv, m := newTestServer(t, Config{Runners: 1, QueueSize: 1})
	heavy := testSpec(1)
	p := core.DefaultParams()
	p.Restarts = 64
	heavy.Params = &p
	pinned, resp := postJob(t, srv, heavy)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pin job: %d", resp.StatusCode)
	}
	waitState(t, m, pinned.ID, StateRunning)
	if _, resp := postJob(t, srv, testSpec(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling job: %d", resp.StatusCode)
	}
	_, resp = postJob(t, srv, testSpec(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if _, err := m.Cancel(pinned.ID); err != nil {
		t.Fatal(err)
	}
}

// readSSE consumes one SSE stream to EOF and returns the events in order.
func readSSE(t *testing.T, resp *http.Response) []Event {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return events
}

func TestHTTPEventStream(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	st, resp := postJob(t, srv, testSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, sresp)
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != EventQueued || events[len(events)-1].Type != EventDone {
		t.Fatalf("stream %v does not run queued … done", eventTypes(events))
	}
	restarts := 0
	for _, ev := range events {
		if ev.Type == EventRestart {
			restarts++
			if ev.BestCycles <= 0 || ev.Total <= 0 {
				t.Fatalf("bad restart event %+v", ev)
			}
			if ev.Rounds <= 0 || ev.Iterations <= 0 {
				t.Fatalf("restart event missing progress counters: %+v", ev)
			}
		}
	}
	if restarts == 0 {
		t.Fatalf("no restart events in %v", eventTypes(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("sequence not monotonic: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}

	// Replay from the middle via ?from=: the history after that seq comes
	// back even though the job is long done.
	mid := events[len(events)/2].Seq
	rresp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", srv.URL, st.ID, mid))
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSE(t, rresp)
	if len(replay) != len(events)-mid {
		t.Fatalf("replay from %d returned %d events, want %d", mid, len(replay), len(events)-mid)
	}
	if replay[0].Seq != mid+1 {
		t.Fatalf("replay starts at seq %d, want %d", replay[0].Seq, mid+1)
	}
}

// TestHTTPTraceEndpoint submits one traced and one untraced job and checks
// GET /v1/jobs/{id}/trace: Chrome trace-event JSON for the former, 404 for
// the latter.
func TestHTTPTraceEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 1})
	spec := testSpec(1)
	spec.Trace = true
	st, resp := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	waitDoneHTTP(t, srv, st.ID)

	tresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"block", "restart", "round", "evaluate", "sched"} {
		if !names[want] {
			t.Fatalf("trace missing %q spans (got %v)", want, names)
		}
	}

	// Untraced job: 404.
	st2, resp2 := postJob(t, srv, testSpec(1))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: %d", resp2.StatusCode)
	}
	waitDoneHTTP(t, srv, st2.ID)
	nresp, err := http.Get(srv.URL + "/v1/jobs/" + st2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced job trace: %d, want 404", nresp.StatusCode)
	}
}

func eventTypes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

// TestHTTPConcurrentSubmitAndStream hammers the API from many goroutines —
// submissions, status polls and SSE streams at once — primarily as a -race
// exercise of the manager, bus and handlers.
func TestHTTPConcurrentSubmitAndStream(t *testing.T) {
	srv, _ := newTestServer(t, Config{Runners: 4, QueueSize: 64})
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := testSpec(2)
			body, _ := json.Marshal(spec)
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				errCh <- err
				return
			}
			sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
			if err != nil {
				errCh <- err
				return
			}
			defer sresp.Body.Close()
			sc := bufio.NewScanner(sresp.Body)
			last := ""
			for sc.Scan() {
				if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
					var ev Event
					if jerr := json.Unmarshal([]byte(data), &ev); jerr != nil {
						errCh <- jerr
						return
					}
					last = ev.Type
				}
			}
			if last != EventDone {
				errCh <- fmt.Errorf("job %s stream ended on %q", st.ID, last)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiron/internal/obs"
)

// httpApp boots an App behind an httptest server.
func httpApp(t *testing.T, opt Options) (*App, *httptest.Server) {
	t.Helper()
	a := testApp(t, opt)
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	return a, srv
}

func doJSON(t *testing.T, method, url string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]interface{}{}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: non-JSON body %q", method, url, raw)
		}
	}
	return resp.StatusCode, out
}

// TestGatewayLifecycle drives the full register -> plan -> invoke ->
// result -> status path over HTTP, including async invocations, traces
// and /metrics.
func TestGatewayLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	_, srv := httpApp(t, Options{Scale: 0.05, Reg: reg})

	// Register (builtin registration is what CI's smoke test uses too).
	code, body := doJSON(t, "POST", srv.URL+"/workflows",
		map[string]string{"builtin": "SocialNetwork"})
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	// Re-register is an update, not a create.
	code, _ = doJSON(t, "POST", srv.URL+"/workflows", map[string]string{"builtin": "SocialNetwork"})
	if code != http.StatusOK {
		t.Fatalf("re-register: %d", code)
	}
	// Unknown builtin -> 404; invoke before plan -> 409.
	code, _ = doJSON(t, "POST", srv.URL+"/workflows", map[string]string{"builtin": "nope"})
	if code != http.StatusNotFound {
		t.Fatalf("unknown builtin: %d", code)
	}
	code, _ = doJSON(t, "POST", srv.URL+"/workflows/SocialNetwork/invoke", nil)
	if code != http.StatusConflict {
		t.Fatalf("invoke before plan: %d", code)
	}

	code, body = doJSON(t, "POST", srv.URL+"/workflows/SocialNetwork/plan",
		map[string]string{"slo": "500ms"})
	if code != http.StatusOK {
		t.Fatalf("plan: %d %v", code, body)
	}
	if body["version"].(float64) != 1 || body["predicted_ms"].(float64) <= 0 {
		t.Fatalf("plan response %v", body)
	}

	code, body = doJSON(t, "POST", srv.URL+"/workflows/SocialNetwork/invoke", nil)
	if code != http.StatusOK {
		t.Fatalf("invoke: %d %v", code, body)
	}
	if body["cold"] != true || body["e2e_ms"].(float64) <= 0 {
		t.Fatalf("invoke result %v", body)
	}
	if n := len(body["functions"].([]interface{})); n != 10 {
		t.Fatalf("functions in result: %d, want 10", n)
	}

	// Traced invocation returns a Chrome trace alongside the result.
	code, body = doJSON(t, "POST", srv.URL+"/workflows/SocialNetwork/invoke?trace=1", nil)
	if code != http.StatusOK {
		t.Fatalf("traced invoke: %d", code)
	}
	if body["trace"] == nil || body["result"] == nil {
		t.Fatalf("traced invoke body keys %v", body)
	}

	// Async invocation: 202 + poll to completion.
	code, body = doJSON(t, "POST", srv.URL+"/workflows/SocialNetwork/invoke?async=1", nil)
	if code != http.StatusAccepted {
		t.Fatalf("async invoke: %d %v", code, body)
	}
	statusURL := srv.URL + body["status_url"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = doJSON(t, "GET", statusURL, nil)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusAccepted || time.Now().After(deadline) {
			t.Fatalf("async poll: %d %v", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if body["workflow"] != "SocialNetwork" {
		t.Fatalf("async result %v", body)
	}

	// Status and active plan.
	code, body = doJSON(t, "GET", srv.URL+"/workflows/SocialNetwork", nil)
	if code != http.StatusOK || body["planned"] != true {
		t.Fatalf("status: %d %v", code, body)
	}
	code, body = doJSON(t, "GET", srv.URL+"/workflows/SocialNetwork/plan", nil)
	if code != http.StatusOK || body["plan"] == nil {
		t.Fatalf("get plan: %d %v", code, body)
	}

	// Metrics expose the serving counters.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"chiron_serve_requests_total",
		"chiron_serve_coldstarts_total",
		"chiron_serve_warmhits_total",
		"chiron_serve_latency_bucket",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, prom)
		}
	}
}

// TestGatewayUnknownWorkflowNamed: every 404 for an unknown workflow
// names it, repeats included, so an operator can tell which name a
// client got wrong.
func TestGatewayUnknownWorkflowNamed(t *testing.T) {
	_, srv := httpApp(t, Options{Scale: 0.05, Reg: obs.NewRegistry()})
	for i := 0; i < 3; i++ {
		code, body := doJSON(t, "POST", srv.URL+"/workflows/ghost/invoke", nil)
		if code != http.StatusNotFound {
			t.Fatalf("invoke %d: %d %v, want 404", i, code, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "ghost") {
			t.Fatalf("invoke %d: 404 body %v does not name the workflow", i, body)
		}
	}
}

// TestGatewayBackpressure saturates a 1-slot, 1-seat gateway and expects
// the third concurrent request to be rejected with 429 + Retry-After
// instead of queueing unboundedly.
func TestGatewayBackpressure(t *testing.T) {
	a, srv := httpApp(t, Options{
		Scale:          0.5,
		MaxConcurrency: 1,
		MaxQueue:       1,
	})
	if _, err := a.Register(testWorkflow(80 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 20*time.Second)

	var wg sync.WaitGroup
	invoke := func() {
		defer wg.Done()
		code, _ := doJSON(t, "POST", srv.URL+"/workflows/wf-test/invoke", nil)
		if code != http.StatusOK {
			t.Errorf("background invoke: %d", code)
		}
	}
	wg.Add(2)
	go invoke() // occupies the execution slot
	waitFor(t, func() bool { return a.opt.Reg.Gauge("chiron_serve_inflight", "").Value() == 1 })
	go invoke() // occupies the single queue seat
	waitFor(t, func() bool {
		wf, _ := a.workflow("wf-test")
		return wf.adm.depth() == 1
	})

	req, _ := http.NewRequest("POST", srv.URL+"/workflows/wf-test/invoke", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
	if got := a.opt.Reg.Counter("chiron_serve_rejected_total", "").Value(); got == 0 {
		t.Fatal("rejected counter did not move")
	}
}

// TestGatewayRollbackEndpoint drives POST /workflows/{name}/plan/rollback:
// 409 before a plan and with an empty history, restoring the previous
// epoch (prediction and all) once one exists, and a second rollback
// acting as a redo.
func TestGatewayRollbackEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	a, srv := httpApp(t, Options{Scale: 0.05, Reg: reg})
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rollbackURL := srv.URL + "/workflows/wf-test/plan/rollback"

	// Unknown workflow -> 404; unplanned -> 409; no history yet -> 409.
	code, _ := doJSON(t, "POST", srv.URL+"/workflows/nope/plan/rollback", nil)
	if code != http.StatusNotFound {
		t.Fatalf("rollback unknown workflow: %d, want 404", code)
	}
	code, _ = doJSON(t, "POST", rollbackURL, nil)
	if code != http.StatusConflict {
		t.Fatalf("rollback before plan: %d, want 409", code)
	}
	infoA := mustPlan(t, a, "wf-test", 400*time.Millisecond)
	code, body := doJSON(t, "POST", rollbackURL, nil)
	if code != http.StatusConflict {
		t.Fatalf("rollback with empty history: %d %v, want 409", code, body)
	}

	// Re-register heavier behaviour and re-plan: epoch 2, a different
	// prediction, epoch 1 retired into the history.
	if _, err := a.Register(testWorkflow(16 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	infoB := mustPlan(t, a, "wf-test", 1600*time.Millisecond)
	if infoB.Version != 2 || infoB.Predicted == infoA.Predicted {
		t.Fatalf("second plan: version=%d predicted=%v (first %v)", infoB.Version, infoB.Predicted, infoA.Predicted)
	}

	// Rollback restores epoch 1's plan as a fresh epoch.
	code, body = doJSON(t, "POST", rollbackURL, nil)
	if code != http.StatusOK {
		t.Fatalf("rollback: %d %v", code, body)
	}
	if v := body["version"].(float64); v != 3 {
		t.Fatalf("rollback version %v, want 3", v)
	}
	if p := body["predicted_ms"].(float64); p != float64(infoA.Predicted)/1e6 {
		t.Fatalf("rollback predicted %vms, want epoch 1's %vms", p, float64(infoA.Predicted)/1e6)
	}
	code, body = doJSON(t, "GET", srv.URL+"/workflows/wf-test", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if body["rollbacks"].(float64) != 1 {
		t.Fatalf("status rollbacks %v, want 1", body["rollbacks"])
	}

	// A second rollback is a redo: the displaced epoch 2 comes back.
	code, body = doJSON(t, "POST", rollbackURL, nil)
	if code != http.StatusOK {
		t.Fatalf("redo rollback: %d %v", code, body)
	}
	if p := body["predicted_ms"].(float64); p != float64(infoB.Predicted)/1e6 {
		t.Fatalf("redo predicted %vms, want epoch 2's %vms", p, float64(infoB.Predicted)/1e6)
	}
	if got := reg.Counter("chiron_serve_rollbacks_total", "").Value(); got != 2 {
		t.Fatalf("rollbacks_total = %d, want 2", got)
	}

	// The gateway keeps serving on the restored plan.
	code, body = doJSON(t, "POST", srv.URL+"/workflows/wf-test/invoke", nil)
	if code != http.StatusOK {
		t.Fatalf("invoke after rollbacks: %d %v", code, body)
	}
	if v := body["plan_version"].(float64); v != 4 {
		t.Fatalf("serving plan version %v, want 4", v)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewayAdaptiveReplan induces a latency drift (re-registering the
// workflow with 6x heavier functions) under continuous load and expects
// the controller to re-plan and swap the active plan while every
// in-flight and subsequent request still succeeds.
func TestGatewayAdaptiveReplan(t *testing.T) {
	reg := obs.NewRegistry()
	a, srv := httpApp(t, Options{
		Scale:        0.05,
		Reg:          reg,
		Window:       4,
		DriftTrigger: 1.5,
	})
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 600*time.Millisecond)

	var stop atomic.Bool
	var failures atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				code, body := doJSON(t, "POST", srv.URL+"/workflows/wf-test/invoke", nil)
				if code != http.StatusOK {
					failures.Add(1)
					t.Errorf("invoke during drift: %d %v", code, body)
					return
				}
				served.Add(1)
			}
		}()
	}

	// Warm up under the original behaviour, then drift.
	waitFor(t, func() bool { return served.Load() >= 8 })
	if _, err := a.Register(testWorkflow(24 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := a.WorkflowStatus("wf-test")
		if err != nil {
			t.Fatal(err)
		}
		if st.Replans >= 1 {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("drift never triggered a re-plan (served %d)", served.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests dropped across the plan swap", failures.Load())
	}
	if got := reg.Counter("chiron_serve_replans_total", "").Value(); got == 0 {
		t.Fatal("replan counter did not move")
	}
	// New arrivals must land on the swapped plan epoch.
	code, body := doJSON(t, "POST", srv.URL+"/workflows/wf-test/invoke", nil)
	if code != http.StatusOK {
		t.Fatalf("post-swap invoke: %d", code)
	}
	if v := body["plan_version"].(float64); v < 2 {
		t.Fatalf("post-swap plan version %v, want >= 2", v)
	}
	st, err := a.WorkflowStatus("wf-test")
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanVersion < 2 {
		t.Fatalf("status plan version %d, want >= 2", st.PlanVersion)
	}
	_ = fmt.Sprintf("served %d", served.Load())
}

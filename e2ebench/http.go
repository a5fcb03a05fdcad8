package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chiron/internal/obs"
	"chiron/internal/serve"
)

// httpSeqHeader carries the benchmark's request index to its middleware,
// so a traced run can join server-side handler spans to client samples.
const httpSeqHeader = "X-Bench-Seq"

// handlerLog is the traced phase's record per request index, as
// offsets from the phase epoch: the handler's start and end (server
// side), and when the client had written the request and got the
// reply's first byte.
type handlerLog struct {
	epoch        time.Time
	start, end   []atomic.Int64
	wrote, first []atomic.Int64
	recorded     atomic.Int64
}

func newHandlerLog(n int) *handlerLog {
	return &handlerLog{
		epoch: time.Now(), start: make([]atomic.Int64, n), end: make([]atomic.Int64, n),
		wrote: make([]atomic.Int64, n), first: make([]atomic.Int64, n),
	}
}

// middleware wraps App.Handler. It blocks for a fixed delay when the
// sensitivity self-test sets one, and in a traced phase records each
// handler's start and end.
type middleware struct {
	next  http.Handler
	delay time.Duration
	log   atomic.Pointer[handlerLog]
	// stub, when set, answers every request with stubBody instead of
	// calling the app (--harness-cpu).
	stub     atomic.Bool
	stubBody []byte
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	lg := m.log.Load()
	var t0 time.Time
	if lg != nil {
		t0 = time.Now()
	}
	if m.delay > 0 {
		// A wait that burns no CPU, as a lock or a timer on the request
		// path would add. nanosleep holds it to the delay, where a Go
		// timer could wake a millisecond late on a small machine.
		ts := syscall.NsecToTimespec(int64(m.delay))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	if m.stub.Load() {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(m.stubBody)
	} else {
		m.next.ServeHTTP(w, req)
	}
	if lg == nil {
		return
	}
	i, err := strconv.Atoi(req.Header.Get(httpSeqHeader))
	if err != nil || i < 0 || i >= len(lg.start) {
		return
	}
	lg.start[i].Store(int64(t0.Sub(lg.epoch)))
	lg.end[i].Store(int64(time.Since(lg.epoch)))
	lg.recorded.Add(1)
}

// httpHarness is one built http-social system: the app behind a real
// HTTP/1.1 server on loopback and a keep-alive client with at most
// `senders` connections.
type httpHarness struct {
	app    *serve.App
	srv    *http.Server
	mw     *middleware
	tp     *http.Transport
	client *http.Client
	url    string
	name   string
	scale  float64
	served chan error
}

func newHTTPHarness(r *run) (*httpHarness, error) {
	app := serve.New(serve.Options{
		Scale: r.wl.Scale,
		// Admission never queues: every sender's request gets a slot.
		MaxConcurrency: 8 * r.senders,
		// A window the run never fills keeps the adaptive controller
		// still, so re-planning cannot move the steady-state numbers.
		Window: 1 << 20,
		Reg:    obs.NewRegistry(),
	})
	h := &httpHarness{
		app: app, mw: &middleware{next: app.Handler(), delay: r.delay,
			stubBody: []byte(fmt.Sprintf(`{"workflow":%q,"plan_version":1,"invocation_id":1}`, r.wl.Workflow))},
		name: r.wl.Workflow, scale: r.wl.Scale, served: make(chan error, 1),
	}
	if _, err := app.RegisterBuiltin(r.wl.Workflow); err != nil {
		_ = shutdownApp(app)
		return nil, err
	}
	if _, err := app.PlanWorkflow(r.wl.Workflow, 0); err != nil {
		_ = shutdownApp(app)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = shutdownApp(app)
		return nil, err
	}
	h.srv = &http.Server{Handler: h.mw, ReadHeaderTimeout: 10 * time.Second}
	go func() { h.served <- h.srv.Serve(ln) }()
	h.tp = &http.Transport{
		MaxIdleConns:        r.senders,
		MaxIdleConnsPerHost: r.senders,
		MaxConnsPerHost:     r.senders,
		DisableCompression:  true,
	}
	h.client = &http.Client{Transport: h.tp, Timeout: 10 * time.Second}
	h.url = "http://" + ln.Addr().String() + "/workflows/" + r.wl.Workflow + "/invoke"

	// Warm-up, closed loop: every connection and a full warm pool.
	var wg sync.WaitGroup
	errs := make([]error, r.senders)
	for w := 0; w < r.senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20 && errs[w] == nil; i++ {
				var s sample
				if _, err := h.invoke(-1, &s); err != nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	// The loop above overlaps its connections only by chance, and a
	// stall of the host can keep them apart, leaving a function with
	// fewer warm instances than the timed phase has connections: a cold
	// boot then breaks the steady-state guard. Bursts of twice as many
	// in-process invocations, released together, warm the pool past
	// what the connections can use at once.
	errs = append(errs, warmBursts(app, r.wl.Workflow, 2*r.senders, 10))
	if err := errors.Join(errs...); err != nil {
		_ = h.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return h, nil
}

// warmBursts runs rounds of width concurrent invocations, each round's
// released together.
func warmBursts(app *serve.App, name string, width, rounds int) error {
	for round := 0; round < rounds; round++ {
		gate := make(chan struct{})
		errs := make([]error, width)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-gate
				_, errs[i] = app.Invoke(context.Background(), name, nil)
			}(i)
		}
		close(gate)
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// close stops the HTTP server, closes client connections and drains
// the app.
func (h *httpHarness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errSrv := h.srv.Shutdown(ctx)
	if err := <-h.served; !errors.Is(err, http.ErrServerClosed) {
		errSrv = errors.Join(errSrv, err)
	}
	h.tp.CloseIdleConnections()
	return errors.Join(errSrv, shutdownApp(h.app))
}

// invokeReply is the part of serve.InvokeResult the client checks.
type invokeReply struct {
	Workflow     string  `json:"workflow"`
	PlanVersion  int64   `json:"plan_version"`
	QueueWaitMs  float64 `json:"queue_wait_ms"`
	ColdStartMs  float64 `json:"cold_start_ms"`
	E2EMs        float64 `json:"e2e_ms"`
	InvocationID uint64  `json:"invocation_id"`
}

// errWrongReply marks a reply that is malformed or not this request's:
// a correctness failure, unlike a refusal.
var errWrongReply = errors.New("wrong reply")

// invoke sends one request; s.ok reports a 200 with a well-formed reply
// for this workflow. A refusal (429, 503, 504) is not ok but also not
// wrong; anything else is errWrongReply.
func (h *httpHarness) invoke(i int, s *sample) (uint64, error) {
	req, err := http.NewRequest(http.MethodPost, h.url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(httpSeqHeader, strconv.Itoa(i))
	if lg := h.mw.log.Load(); lg != nil && i >= 0 && i < len(lg.wrote) {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { lg.wrote[i].Store(int64(time.Since(lg.epoch))) },
			GotFirstResponseByte: func() { lg.first[i].Store(int64(time.Since(lg.epoch))) },
		}))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil // transport failure or timeout: a failed attempt
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, nil
	default:
		return 0, fmt.Errorf("%w: status %d", errWrongReply, resp.StatusCode)
	}
	var rep invokeReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, fmt.Errorf("%w: %v", errWrongReply, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the connection is reused
	if rep.Workflow != h.name || rep.InvocationID == 0 {
		return 0, fmt.Errorf("%w: workflow %q id %d", errWrongReply, rep.Workflow, rep.InvocationID)
	}
	s.ok = true
	s.parts = replyParts(rep, h.scale)
	return rep.InvocationID, nil
}

// replyParts converts the reply's nominal fields into wall time.
func replyParts(rep invokeReply, scale float64) parts {
	w := func(msNominal float64) time.Duration {
		return time.Duration(msNominal * scale * float64(time.Millisecond))
	}
	return parts{queue: w(rep.QueueWaitMs), cold: w(rep.ColdStartMs), exec: w(rep.E2EMs)}
}

// runHTTPSocial drives SocialNetwork over HTTP/1.1 keep-alive: an
// open-loop phase at the fixed rate, then a closed-loop saturation phase
// over the same connections for goodput_rps.
func runHTTPSocial(r *run) error {
	var h *httpHarness
	teardown, err := r.setupRepeated(5, func() (func() error, error) {
		var err error
		h, err = newHTTPHarness(r)
		if err != nil {
			return nil, err
		}
		return h.close, nil
	})
	if err != nil {
		return err
	}
	sv, err := newServingRun(r, h.app, h.name, "serve.http")
	if err != nil {
		return err
	}
	sv.run(func(a *arrivals, traced bool) time.Time {
		var lg *handlerLog
		if traced {
			lg = newHandlerLog(len(a.due))
			h.mw.log.Store(lg)
			defer h.mw.log.Store(nil)
		}
		start := driveSync(a, r.senders, func(i int, s *sample) {
			id, err := h.invoke(i, s)
			if err != nil {
				sv.wrong(err)
			}
			a.ids[i] = id
		})
		if lg != nil {
			waitRecorded(lg, a.ss, start)
		}
		return start
	}, func(dur time.Duration) closedStats {
		return closedLoop(dur, r.senders, limitOf(r), func(s *sample) uint64 {
			id, err := h.invoke(-1, s)
			if err != nil {
				sv.wrong(err)
			}
			return id
		})
	})
	return sv.finish(teardown)
}

// waitRecorded waits until the middleware has recorded every completed
// request of a traced phase, then copies the handler spans into the
// samples as offsets from the phase start.
func waitRecorded(lg *handlerLog, ss []sample, start time.Time) {
	want := int64(0)
	for i := range ss {
		if ss[i].ok {
			want++
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for lg.recorded.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	shift := start.Sub(lg.epoch)
	for i := range ss {
		if e := lg.end[i].Load(); e > 0 && lg.first[i].Load() > 0 {
			ss[i].hStart = time.Duration(lg.start[i].Load()) - shift
			ss[i].hEnd = time.Duration(e) - shift
			ss[i].wrote = time.Duration(lg.wrote[i].Load()) - shift
			ss[i].firstByte = time.Duration(lg.first[i].Load()) - shift
		}
	}
}

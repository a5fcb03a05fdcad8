package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"chiron/internal/obs"
	"chiron/internal/serve"
	"chiron/internal/udp"
)

// udpHarness is one built udp-finra50 system: the app behind the binary
// UDP plane and one handshaked client socket that keeps many invocation
// ids outstanding and matches replies by id.
type udpHarness struct {
	app    *serve.App
	srv    *udp.Server
	conn   *net.UDPConn
	token  uint64
	hash   uint64
	scale  float64
	nextID uint64
}

func newUDPHarness(r *run) (*udpHarness, error) {
	reg := obs.NewRegistry()
	app := serve.New(serve.Options{
		Scale: r.wl.Scale,
		// More slots than UDP workers: admission never queues, so
		// overload shows as UDP shedding, not as admission rejects.
		MaxConcurrency: 64,
		Window:         1 << 20,
		Reg:            reg,
	})
	h := &udpHarness{app: app, hash: serve.HashName(r.wl.Workflow), scale: r.wl.Scale}
	fail := func(err error) (*udpHarness, error) {
		_ = h.close()
		return nil, err
	}
	if _, err := app.RegisterBuiltin(r.wl.Workflow); err != nil {
		return fail(err)
	}
	if _, err := app.PlanWorkflow(r.wl.Workflow, 0); err != nil {
		return fail(err)
	}
	// A backlog deep enough to ride out a stall of the host: invokes
	// arriving while this machine's CPUs are withheld queue instead of
	// being shed, so the fixed-rate phase has no failures to report.
	srv, err := udp.New(app, udp.Options{Reg: reg, Backlog: 256})
	if err != nil {
		return fail(err)
	}
	h.srv = srv
	if h.conn, err = net.DialUDP("udp", nil, srv.Addr()); err != nil {
		return fail(err)
	}
	_ = h.conn.SetReadBuffer(4 << 20) // best effort: bursts of replies
	if err := h.handshake(); err != nil {
		return fail(err)
	}
	// Warm-up: bursts as deep as the server's workers plus half its
	// backlog, so every instance the timed phase can lease is warm.
	for round := 0; round < 5; round++ {
		a := newArrivals(make([]time.Duration, 16))
		h.phase(a, func(error) {})
		for i := range a.ss {
			if !a.ss[i].ok {
				a.free()
				return fail(fmt.Errorf("warm-up invocation %d failed", i))
			}
		}
		a.free()
	}
	return h, nil
}

func (h *udpHarness) handshake() error {
	var buf [udp.MaxDatagram]byte
	n := udp.EncodeConnect(buf[:], 1)
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := h.conn.Write(buf[:n]); err != nil {
			return err
		}
		_ = h.conn.SetReadDeadline(time.Now().Add(time.Second))
		m, err := h.conn.Read(buf[:])
		if err != nil {
			continue
		}
		var rep udp.Reply
		if udp.ParseReply(buf[:m], &rep) == nil && rep.Type == udp.TypeConnectAck && rep.Token != 0 {
			h.token = rep.Token
			return h.conn.SetReadDeadline(time.Time{})
		}
	}
	return errors.New("udp handshake failed")
}

func (h *udpHarness) close() error {
	var errs []error
	if h.conn != nil {
		errs = append(errs, h.conn.Close())
	}
	if h.srv != nil {
		errs = append(errs, h.srv.Close())
	}
	errs = append(errs, shutdownApp(h.app))
	return errors.Join(errs...)
}

// replyWait bounds how long a phase waits for its last replies.
const replyWait = 2 * time.Second

// phase sends one invocation per arrival from a single sender, open
// loop, while a receiver matches replies to ids. A reply that is not
// StatusOK or a refusal, or that answers an id twice, is reported to
// wrong. Unanswered ids are lost: failed attempts.
func (h *udpHarness) phase(a *arrivals, wrong func(error)) time.Time {
	due, ss := a.due, a.ss
	base := h.nextID + 1
	h.nextID += uint64(len(due))
	start := time.Now().Add(2 * time.Millisecond)

	var mu sync.Mutex
	got := 0
	all := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		var buf [udp.MaxDatagram]byte
		var rep udp.Reply
		for {
			n, err := h.conn.Read(buf[:])
			if err != nil {
				return // deadline set by the sender once the phase is over
			}
			now := time.Since(start)
			if udp.ParseReply(buf[:n], &rep) != nil || rep.Type != udp.TypeReply || rep.ID < base {
				continue // a late reply from an earlier phase
			}
			i := int(rep.ID - base)
			if i >= len(ss) {
				wrong(fmt.Errorf("%w: reply for unsent id %d", errWrongReply, rep.ID))
				continue
			}
			mu.Lock()
			s := &ss[i]
			if s.done != 0 {
				mu.Unlock()
				wrong(fmt.Errorf("%w: second reply for id %d", errWrongReply, rep.ID))
				continue
			}
			s.done = now
			switch rep.Status {
			case udp.StatusOK:
				s.ok = rep.PlanVersion > 0
				s.parts = parts{
					queue: time.Duration(float64(rep.QueueWait) * h.scale),
					cold:  time.Duration(float64(rep.Aux) * h.scale),
					exec:  time.Duration(float64(rep.E2E) * h.scale),
				}
			case udp.StatusOverloaded, udp.StatusTimeout, udp.StatusDraining:
			default:
				wrong(fmt.Errorf("%w: status %d for id %d", errWrongReply, rep.Status, rep.ID))
			}
			got++
			if got == len(ss) {
				close(all)
			}
			mu.Unlock()
		}
	}()

	var pkt [udp.HeaderSize]byte
	for i := range ss {
		sleepUntil(start.Add(due[i]))
		n, err := udp.EncodeInvoke(pkt[:], h.token, h.hash, base+uint64(i), 0, 0, nil)
		if err != nil {
			wrong(err)
			continue
		}
		mu.Lock()
		// Outstanding requests overlap: spread them over trace rows.
		// The only sender never waits for the system: any lateness is
		// its own wake-up, so every request is timed from its send.
		ss[i].due, ss[i].sent, ss[i].sender = due[i], time.Since(start), uint8(i%32)
		ss[i].from = ss[i].sent
		mu.Unlock()
		if _, err := h.conn.Write(pkt[:n]); err != nil {
			wrong(fmt.Errorf("send: %w", err))
		}
		// The receiver never touches wrote, so it needs no lock.
		ss[i].wrote = time.Since(start)
	}
	if len(ss) > 0 {
		select {
		case <-all:
		case <-time.After(replyWait):
		}
	}
	_ = h.conn.SetReadDeadline(time.Now())
	<-recvDone
	_ = h.conn.SetReadDeadline(time.Time{})
	mu.Lock()
	defer mu.Unlock()
	for i := range ss {
		if ss[i].done == 0 {
			ss[i].done = ss[i].sent + replyWait // lost
		}
	}
	return start
}

// saturationDepth is how many invocations the closed-loop phase keeps
// outstanding: more than the server's workers (4 x GOMAXPROCS on two
// cores), so none idles, and far fewer than its backlog.
const saturationDepth = 12

// saturate keeps depth invocations outstanding for dur, sending the
// next one as each reply arrives, from one goroutine.
func (h *udpHarness) saturate(dur time.Duration, depth int, limit time.Duration, wrong func(error)) closedStats {
	var st closedStats
	base := h.nextID + 1
	var sentAt []time.Time
	var answered []bool
	var pkt [udp.HeaderSize]byte
	send := func() {
		h.nextID++
		n, err := udp.EncodeInvoke(pkt[:], h.token, h.hash, h.nextID, 0, 0, nil)
		if err != nil {
			wrong(err)
			return
		}
		sentAt, answered = append(sentAt, time.Now()), append(answered, false)
		st.n++
		if _, err := h.conn.Write(pkt[:n]); err != nil {
			wrong(fmt.Errorf("send: %w", err))
		}
	}
	st.start = time.Now()
	end := st.start.Add(dur)
	for i := 0; i < depth; i++ {
		send()
	}
	outstanding := depth
	var buf [udp.MaxDatagram]byte
	var rep udp.Reply
	_ = h.conn.SetReadDeadline(end.Add(replyWait))
	for outstanding > 0 {
		n, err := h.conn.Read(buf[:])
		if err != nil {
			break // the rest are lost
		}
		if udp.ParseReply(buf[:n], &rep) != nil || rep.Type != udp.TypeReply || rep.ID < base {
			continue
		}
		i := int(rep.ID - base)
		if i >= len(sentAt) || answered[i] {
			wrong(fmt.Errorf("%w: unexpected reply for id %d", errWrongReply, rep.ID))
			continue
		}
		answered[i] = true
		outstanding--
		switch rep.Status {
		case udp.StatusOK:
			st.ok++
			st.ids = append(st.ids, rep.ID)
			if now := time.Now(); now.Sub(sentAt[i]) <= limit {
				st.goodAt = append(st.goodAt, now.UnixNano())
			}
		case udp.StatusOverloaded, udp.StatusTimeout, udp.StatusDraining:
		default:
			wrong(fmt.Errorf("%w: status %d for id %d", errWrongReply, rep.Status, rep.ID))
		}
		if time.Now().Before(end) {
			send()
			outstanding++
		}
	}
	st.end = time.Now()
	_ = h.conn.SetReadDeadline(time.Time{})
	return st
}

// runUDPFinra drives FINRA-50 over the UDP plane: an open-loop phase at
// the fixed rate, then a closed-loop saturation phase for goodput_rps.
func runUDPFinra(r *run) error {
	var h *udpHarness
	teardown, err := r.setupRepeated(5, func() (func() error, error) {
		var err error
		h, err = newUDPHarness(r)
		if err != nil {
			return nil, err
		}
		return h.close, nil
	})
	if err != nil {
		return err
	}
	sv, err := newServingRun(r, h.app, r.wl.Workflow, "udp")
	if err != nil {
		return err
	}
	sv.run(func(a *arrivals, traced bool) time.Time {
		first := h.nextID + 1
		start := h.phase(a, sv.wrong)
		for i := range a.ids {
			a.ids[i] = first + uint64(i)
		}
		return start
	}, func(dur time.Duration) closedStats {
		return h.saturate(dur, saturationDepth, limitOf(r), sv.wrong)
	})
	if r.traced {
		udpProbes(r, h)
	}
	return sv.finish(teardown)
}

// udpProbes times the per-packet and per-reply protocol work.
func udpProbes(r *run, h *udpHarness) {
	secret, err := udp.NewSecret()
	if err != nil {
		r.check("probes", false, "%v", err)
		return
	}
	addr := netip.MustParseAddrPort("127.0.0.1:40000")
	token := secret.Token(addr)
	var pkt [udp.HeaderSize]byte
	if _, err := udp.EncodeInvoke(pkt[:], token, h.hash, 1, 0, 0, nil); err != nil {
		r.check("probes", false, "%v", err)
		return
	}
	bad := 0
	var hd udp.Header
	p0 := time.Now()
	packet := timeProbeBatch(200, 100, func() {
		if !udp.Filter(pkt[:]) || udp.ParseHeader(pkt[:], &hd) != nil || hd.Token != secret.Token(addr) {
			bad++
		}
	})
	var out [udp.ReplySize]byte
	var rep udp.Reply
	reply := timeProbeBatch(200, 100, func() {
		n := udp.EncodeReply(out[:], &udp.Reply{Type: udp.TypeReply, ID: 7, PlanVersion: 1, E2E: time.Millisecond})
		if udp.ParseReply(out[:n], &rep) != nil || rep.ID != 7 {
			bad++
		}
	})
	r.tr.span(pidProbes, 5, "udp.Filter+ParseHeader+token / EncodeReply+ParseReply", "probe", r.tr.at(p0), r.tr.at(time.Now()))
	r.check("udp_probe_roundtrip", bad == 0, "%d probe packets failed to parse back", bad)
	r.setLayer("udp.packet_ns", "ns", median(packet))
	r.setLayer("udp.reply_ns", "ns", median(reply))
}

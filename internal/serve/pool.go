package serve

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"chiron/internal/dag"
	"chiron/internal/wrap"
)

// warmPool manages keep-alive sandbox instances for one plan epoch.
//
// An "instance" is one booted copy of the plan's whole sandbox set (all
// wraps of one request path). Acquiring with no idle instance boots a
// cold one — the modelled container boot, model.Constants.ColdStart,
// slept on the wall clock (scaled) and charged to the request — while a
// warm hit is free, mirroring sandbox.StartLatency. Idle instances are
// evicted after the keep-alive, so the resident-memory gauge (priced by
// the plan's sandbox ledgers) tracks what a node would actually hold.
//
// When the controller swaps plans the old epoch's pool is retired: its
// leased instances finish their requests and are then discarded instead
// of being parked warm, so a swap never drops in-flight work.
//
// Each parked instance gets its own jittered expiry (KeepAliveJitter),
// so the epoch-wide park that follows a plan swap cannot line up every
// instance's eviction on one reaper tick and synchronize a cold-boot
// storm when traffic returns.
type warmPool struct {
	app         *App
	perInstMB   float64
	coldNominal time.Duration
	coldWall    time.Duration
	keepAlive   time.Duration
	jitter      float64

	mu      sync.Mutex
	warm    []idle // parked; a spare still booting goes to the front
	total   int    // warm + leased
	leased  int
	retired bool
}

func newWarmPool(a *App, plan *wrap.Plan, w *dag.Workflow, keepAlive time.Duration, scale float64) *warmPool {
	p := &warmPool{
		app:         a,
		coldNominal: a.opt.Const.ColdStart,
		coldWall:    time.Duration(float64(a.opt.Const.ColdStart) * scale),
		keepAlive:   keepAlive,
		jitter:      a.opt.KeepAliveJitter,
	}
	// Price one instance from the plan's sandbox ledgers. A plan that
	// fails to price (stale behaviour) still serves; it just reports 0.
	if ledgers, err := plan.Ledgers(w); err == nil {
		for _, s := range ledgers {
			p.perInstMB += s.MemoryMB(a.opt.Const)
		}
	}
	return p
}

// acquire leases an instance for a request: the most recently parked
// idle one, or a cold boot when none is idle. It waits, honouring ctx,
// until the instance has booted, and returns the nominal boot time the
// lease waited for: ColdStart for a cold boot, the rest of a parked
// instance's boot (see acquireSpare), zero for a warm hit. The caller
// charges it to the request.
//
// On ctx cancellation mid-boot the lease is handed back: a parked
// instance is re-parked, and a cold boot is unwound from leased/total
// and the resident gauge and recorded in chiron_serve_cold_cancelled_total
// — the coldstarts counter stays monotonic (Prometheus counters must),
// so capacity accounting reconciles as coldstarts - cold_cancelled.
func (p *warmPool) acquire(ctx context.Context) (boot time.Duration, err error) {
	return p.lease(ctx, false)
}

// acquireSpare leases an instance for a hedge. It differs from acquire
// only on cancellation: a cold boot is not undone but keeps booting as
// a parked instance, which the next lease waits out. A hedge is
// cancelled whenever its primary wins, so unwinding its boot would
// leave no spare behind, and every hedge would boot cold again.
func (p *warmPool) acquireSpare(ctx context.Context) (boot time.Duration, err error) {
	return p.lease(ctx, true)
}

func (p *warmPool) lease(ctx context.Context, keepBoot bool) (boot time.Duration, err error) {
	now := time.Now()
	var ready time.Time
	cold := false
	p.mu.Lock()
	p.leased++
	if n := len(p.warm); n > 0 {
		ready = p.warm[n-1].ready
		p.warm = p.warm[:n-1]
		p.mu.Unlock()
		p.app.m.warmHits.Inc()
		p.app.m.warmGauge.Add(-1)
		if !ready.After(now) {
			return 0, nil
		}
		boot = p.nominal(ready.Sub(now))
	} else {
		p.total++
		p.mu.Unlock()
		cold = true
		ready = now.Add(p.coldWall)
		boot = p.coldNominal
		p.app.m.cold.Inc()
		p.app.m.resident.Add(int64(p.perInstMB))
		if p.coldWall <= 0 {
			return boot, nil
		}
	}
	t := time.NewTimer(ready.Sub(now))
	defer t.Stop()
	select {
	case <-t.C:
		return boot, nil
	case <-ctx.Done():
	}
	p.mu.Lock()
	p.leased--
	if cold && !keepBoot || p.retired {
		p.total--
		p.mu.Unlock()
		p.app.m.resident.Add(-int64(p.perInstMB))
		if cold {
			p.app.m.coldCancelled.Inc()
		}
		return 0, context.Cause(ctx)
	}
	// The boot runs on. Park the instance below the booted ones, so a
	// lease takes it only when no booted instance is idle.
	p.warm = append(p.warm, idle{})
	copy(p.warm[1:], p.warm)
	p.warm[0] = idle{ready: ready, expiry: p.expiry(ready)}
	p.mu.Unlock()
	p.app.m.warmGauge.Add(1)
	return 0, context.Cause(ctx)
}

// nominal converts a wall-clock part of a cold boot back to nominal time.
func (p *warmPool) nominal(wall time.Duration) time.Duration {
	return time.Duration(float64(wall) * float64(p.coldNominal) / float64(p.coldWall))
}

// idle is a parked instance: booted at ready (in the future while a
// spare's boot runs on) and evicted at expiry.
type idle struct {
	ready, expiry time.Time
}

// expiry computes a parked instance's eviction time: keep-alive with
// per-instance uniform jitter in [1-j, 1+j].
func (p *warmPool) expiry(now time.Time) time.Time {
	ka := p.keepAlive
	if p.jitter > 0 {
		ka = time.Duration(float64(ka) * (1 + p.jitter*(2*rand.Float64()-1)))
	}
	return now.Add(ka)
}

// release returns a leased instance: parked warm on a live pool,
// discarded on a retired one.
func (p *warmPool) release(now time.Time) {
	p.mu.Lock()
	p.leased--
	if p.retired {
		p.total--
		p.mu.Unlock()
		p.app.m.resident.Add(-int64(p.perInstMB))
		return
	}
	p.warm = append(p.warm, idle{expiry: p.expiry(now)})
	p.mu.Unlock()
	p.app.m.warmGauge.Add(1)
}

// reap evicts idle instances past their jittered expiry.
func (p *warmPool) reap(now time.Time) {
	p.mu.Lock()
	kept := p.warm[:0]
	evicted := 0
	for _, in := range p.warm {
		if now.After(in.expiry) {
			evicted++
		} else {
			kept = append(kept, in)
		}
	}
	p.warm = kept
	p.total -= evicted
	p.mu.Unlock()
	if evicted > 0 {
		p.app.m.warmGauge.Add(int64(-evicted))
		p.app.m.resident.Add(int64(-evicted) * int64(p.perInstMB))
	}
}

// retire marks the epoch dead: idle instances are evicted now, leased
// ones are discarded as they release.
func (p *warmPool) retire() {
	p.mu.Lock()
	p.retired = true
	evicted := len(p.warm)
	p.warm = nil
	p.total -= evicted
	p.mu.Unlock()
	if evicted > 0 {
		p.app.m.warmGauge.Add(int64(-evicted))
		p.app.m.resident.Add(int64(-evicted) * int64(p.perInstMB))
	}
}

func (p *warmPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Warm:       len(p.warm),
		Total:      p.total,
		ResidentMB: float64(p.total) * p.perInstMB,
	}
}

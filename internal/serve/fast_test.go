package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestHashNameFNV(t *testing.T) {
	// Pinned FNV-64a vectors: the UDP wire format depends on these
	// exact values, so a change here is a protocol break.
	cases := map[string]uint64{
		"":              14695981039346656037,
		"a":             12638187200555641996,
		"SocialNetwork": 9757268868648466704,
	}
	for in, want := range cases {
		if got := HashName(in); got != want {
			t.Errorf("HashName(%q) = %d, want %d", in, got, want)
		}
	}
	if HashName("wf-a") == HashName("wf-b") {
		t.Fatal("distinct names collided")
	}
}

func TestAdmitHashLifecycle(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.AdmitHash(context.Background(), HashName("wf-test")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown hash: %v", err)
	}
	if _, err := a.Register(testWorkflow(4 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdmitHash(context.Background(), HashName("wf-test")); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("unplanned workflow: %v", err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)

	ad, err := a.AdmitHash(context.Background(), HashName("wf-test"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ad.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cold || res.PlanVersion != 1 || res.E2E <= 0 {
		t.Fatalf("fast result %+v", res)
	}

	// Release without Execute must return the slot: the full
	// concurrency budget stays admittable afterwards.
	for i := 0; i < 2*a.wfs["wf-test"].adm.capacity; i++ {
		ad, err := a.AdmitHash(context.Background(), HashName("wf-test"))
		if err != nil {
			t.Fatalf("admit %d after releases: %v", i, err)
		}
		ad.Release()
	}
}

// TestAdmitHashZeroAlloc is the guarded budget for the ingress step the
// UDP plane runs per packet: hash lookup, drain tracking, admission
// fast path, release. 0 allocs once warm.
func TestAdmitHashZeroAlloc(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	h := HashName("wf-test")
	ctx := context.Background()
	if avg := testing.AllocsPerRun(200, func() {
		ad, err := a.AdmitHash(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		ad.Release()
	}); avg > 0 {
		t.Fatalf("AdmitHash+Release allocates %.1f per run, want 0", avg)
	}
	// The unknown-hash reject is a packet-flood path too: no allocs.
	bad := HashName("no-such-workflow")
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := a.AdmitHash(ctx, bad); err == nil {
			t.Fatal("unknown hash admitted")
		}
	}); avg > 0 {
		t.Fatalf("unknown-hash reject allocates %.1f per run, want 0", avg)
	}
}

// TestUnknownWorkflowThenRegister: a name misses the registry until it
// is registered, and from then on resolves (ErrNoPlan, not ErrNotFound).
func TestUnknownWorkflowThenRegister(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02})
	if _, err := a.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("before register: %v (want ErrNotFound)", err)
	}
	w := testWorkflow(2 * time.Millisecond)
	w.Name = "ghost"
	if _, err := a.Register(w); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("after register: %v (want ErrNoPlan, not ErrNotFound)", err)
	}
}

func TestKeepAliveJitterSpreadsExpiry(t *testing.T) {
	a := testApp(t, Options{Scale: 0.02, KeepAlive: time.Minute, KeepAliveJitter: 0.2})
	if _, err := a.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, a, "wf-test", 400*time.Millisecond)
	ps := a.wfs["wf-test"].active.Load()
	now := time.Now()
	min, max := now.Add(time.Minute), now.Add(time.Minute)
	for i := 0; i < 64; i++ {
		e := ps.pool.expiry(now)
		if e.Before(min) {
			min = e
		}
		if e.After(max) {
			max = e
		}
		lo, hi := now.Add(48*time.Second), now.Add(72*time.Second)
		if e.Before(lo) || e.After(hi) {
			t.Fatalf("expiry %v outside [%v, %v]", e.Sub(now), 48*time.Second, 72*time.Second)
		}
	}
	if max.Sub(min) < time.Second {
		t.Fatalf("64 jittered expiries spread only %v; epoch-wide expiry would synchronize", max.Sub(min))
	}

	// Jitter disabled (negative): expiry is exactly keep-alive.
	b := testApp(t, Options{Scale: 0.02, KeepAlive: time.Minute, KeepAliveJitter: -1})
	if _, err := b.Register(testWorkflow(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, b, "wf-test", 400*time.Millisecond)
	pb := b.wfs["wf-test"].active.Load()
	if e := pb.pool.expiry(now); !e.Equal(now.Add(time.Minute)) {
		t.Fatalf("jitter-disabled expiry %v, want exactly %v", e.Sub(now), time.Minute)
	}
}

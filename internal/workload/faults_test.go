package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// faultCampaignGolden pins the guard's enforcement-trace digest for the
// standard campaign at seed 1 with default guard options. The digest
// covers every violation, revocation, and restore with timestamps and
// measured utilizations: any change to scheduling, accounting, fault
// timing, or guard policy shows up here. Refresh deliberately, never
// casually.
const faultCampaignGolden = "0e61e15dfed28b9fdd9d20bcb1a2d6556f22965cf714b628ab762927e8e36f96"

// faultCampaignSpanGolden pins the observability plane's full span-trace
// digest (span IDs and cause edges included) for the same run at the
// default sampling level. It freezes not just what happened but the
// causal attribution: which fault caused which violation, which
// violation drove which revoke, which revoke cascaded which dependant.
// Refresh deliberately, never casually.
const (
	faultCampaignSpanGolden = "c6e61ab5311e85f9d706d0007fe4f30c8ea28e214de3a84002374642ad36c055"
	faultCampaignSpanCount  = 40
)

func TestFaultCampaignRepeatable(t *testing.T) {
	first, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.TraceDigest != second.TraceDigest {
		t.Errorf("trace digest differs across identical runs: %s vs %s", first.TraceDigest, second.TraceDigest)
	}
	if len(first.Violations) != len(second.Violations) {
		t.Errorf("violation count differs: %d vs %d", len(first.Violations), len(second.Violations))
	}
	if len(first.Events) != len(second.Events) {
		t.Errorf("event count differs: %d vs %d", len(first.Events), len(second.Events))
	}
}

func TestFaultCampaignGoldenDigest(t *testing.T) {
	res, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDigest != faultCampaignGolden {
		t.Errorf("fault-campaign trace digest = %s, want %s\ntrace:\n%v",
			res.TraceDigest, faultCampaignGolden, res.GuardTrace)
	}
	if res.SpanDigest != faultCampaignSpanGolden || res.SpanCount != faultCampaignSpanCount {
		t.Errorf("fault-campaign span digest = %s (%d spans), want %s (%d spans)",
			res.SpanDigest, res.SpanCount, faultCampaignSpanGolden, faultCampaignSpanCount)
	}
	second, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.SpanDigest != res.SpanDigest {
		t.Errorf("span digest differs across identical runs: %s vs %s",
			res.SpanDigest, second.SpanDigest)
	}
}

// The span stream must carry the full causal story of the campaign: the
// violation names the fault injection as its cause, the revoke descends
// from the violation, and the snapshot counters agree with the guard's
// own records.
func TestFaultCampaignSpanCausality(t *testing.T) {
	res, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.Contract.Violations != uint64(len(res.Violations)) {
		t.Errorf("obs counted %d violations, guard recorded %d",
			res.Obs.Contract.Violations, len(res.Violations))
	}
	if res.Obs.Contract.Revocations != uint64(res.RevokeCount) ||
		res.Obs.Contract.Restores != uint64(res.RestoreCount) {
		t.Errorf("obs contract stats %+v disagree with revokes=%d restores=%d",
			res.Obs.Contract, res.RevokeCount, res.RestoreCount)
	}
	if res.Obs.Fault.Injections == 0 || res.Obs.Fault.Clears == 0 || res.Obs.Fault.Reapplies == 0 {
		t.Errorf("fault stats incomplete: %+v (standard campaign re-applies on re-admission)", res.Obs.Fault)
	}
	// Each named span counter is its kind's SpanKinds entry.
	spans := map[string]uint64{}
	for _, kc := range res.Obs.SpanKinds {
		spans[kc.Kind] = kc.Count
	}
	s := res.Obs
	for kind, got := range map[obs.Kind]uint64{
		obs.KindDeploy:       s.Lifecycle.Deploys,
		obs.KindTransition:   s.Lifecycle.Transitions,
		obs.KindDeny:         s.Lifecycle.Denials,
		obs.KindViolation:    s.Contract.Violations,
		obs.KindRevoke:       s.Contract.Revocations,
		obs.KindRestore:      s.Contract.Restores,
		obs.KindQuarantine:   s.Contract.Quarantines,
		obs.KindDowngrade:    s.Degrade.Downgrades,
		obs.KindUpgrade:      s.Degrade.Upgrades,
		obs.KindRestart:      s.Supervise.Restarts,
		obs.KindEscalate:     s.Supervise.Escalations,
		obs.KindSend:         s.Cluster.Sends,
		obs.KindRecv:         s.Cluster.Recvs,
		obs.KindMigrate:      s.Cluster.Migrations,
		obs.KindPartition:    s.Cluster.Partitions,
		obs.KindHeal:         s.Cluster.Heals,
		obs.KindPlace:        s.Cluster.Placements,
		obs.KindNodeLoss:     s.Cluster.NodeLosses,
		obs.KindFaultInject:  s.Fault.Injections,
		obs.KindFaultClear:   s.Fault.Clears,
		obs.KindFaultReapply: s.Fault.Reapplies,
		obs.KindSched:        s.Sched.Events,
	} {
		if want := spans[kind.String()]; got != want {
			t.Errorf("%s counter = %d, SpanKinds entry = %d", kind, got, want)
		}
	}
}

func TestFaultCampaignContainmentAndRecovery(t *testing.T) {
	res, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}

	// The inflated execution time must surface as a budget-overrun
	// violation against calc.
	if len(res.Violations) == 0 {
		t.Fatal("no violations detected")
	}
	v := res.Violations[0]
	if v.Component != "calc" || v.Kind != contract.BudgetOverrun {
		t.Errorf("first violation = %v, want calc budget-overrun", v)
	}
	if res.DetectionLatency <= 0 || res.DetectionLatency > 50*time.Millisecond {
		t.Errorf("detection latency = %v, want within a few guard windows", res.DetectionLatency)
	}

	// Enforcement: at least one revoke, and the dependant cascades.
	if res.RevokeCount == 0 || res.RestoreCount == 0 {
		t.Fatalf("revokes=%d restores=%d, want both > 0", res.RevokeCount, res.RestoreCount)
	}
	cascade := false
	for _, ev := range res.Events {
		if ev.Component == "disp" && ev.To == core.Unsatisfied && ev.At >= v.At {
			cascade = true
		}
	}
	if !cascade {
		t.Error("disp never cascaded to UNSATISFIED after calc's violation")
	}

	// Recovery: after the fault clears, both components end ACTIVE, with
	// the provider activating no later than its dependant.
	for _, info := range res.Final {
		if info.State != core.Active {
			t.Errorf("final state of %s = %v, want ACTIVE", info.Name, info.State)
		}
		if info.Revoked {
			t.Errorf("%s still revoked at end of run", info.Name)
		}
	}
	faultClear := sim.Time(FaultStart + FaultDuration)
	if res.RecoveredAt <= faultClear {
		t.Errorf("recovered at %v, want after fault clear %v", res.RecoveredAt, faultClear)
	}
	if res.MTTR <= 0 || res.MTTR > 400*time.Millisecond {
		t.Errorf("MTTR = %v, want positive and bounded", res.MTTR)
	}
	// Dependency order: every disp activation is preceded (in event
	// order) by its provider's activation at the same instant.
	calcActiveAt := map[sim.Time]bool{}
	for _, ev := range res.Events {
		if ev.Component == "calc" && ev.To == core.Active {
			calcActiveAt[ev.At] = true
		}
		if ev.Component == "disp" && ev.To == core.Active && !calcActiveAt[ev.At] {
			t.Errorf("disp activated at %v before calc", ev.At)
		}
	}

	// Containment: disp's dispatch latency stays at its fault-free level
	// (worst case ≈31 µs of release-instant contention with calc's 30 µs
	// job) instead of the ≈120 µs the uncontained inflated job causes.
	if res.DispMaxAbs >= 35000 {
		t.Errorf("guarded disp max |latency| = %d ns, want < 35000", res.DispMaxAbs)
	}
}

func TestFaultCampaignUnguardedBreaksBound(t *testing.T) {
	un, err := RunFaultCampaign(FaultCampaignConfig{Guarded: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(un.Violations) != 0 || un.RevokeCount != 0 {
		t.Errorf("unguarded run recorded enforcement: %d violations, %d revokes", len(un.Violations), un.RevokeCount)
	}
	// Without the guard the inflated calc job blocks disp's dispatch for
	// ~4× the 30 µs bound.
	if un.DispMaxAbs <= 100000 {
		t.Errorf("unguarded disp max |latency| = %d ns, want > 100000 (uncontained fault)", un.DispMaxAbs)
	}
	g, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.DispMaxAbs*2 >= un.DispMaxAbs {
		t.Errorf("guard did not contain the fault: guarded %d ns vs unguarded %d ns", g.DispMaxAbs, un.DispMaxAbs)
	}
}

func TestFaultCampaignOtherKinds(t *testing.T) {
	stall := fault.Campaign{Name: "calc-stall", Faults: []fault.Fault{{
		Kind: fault.Stall, Target: "calc", At: 300 * time.Millisecond, For: 200 * time.Millisecond,
	}}}
	res, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true, Campaign: &stall})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Component == "calc" && v.Kind == contract.DeadlineMiss {
			found = true
		}
	}
	if !found {
		t.Errorf("stall campaign produced no deadline-miss violation: %v", res.Violations)
	}

	freeze := fault.Campaign{Name: "lat-freeze", Faults: []fault.Fault{{
		Kind: fault.SHMFreeze, Target: LatencySHM, At: 300 * time.Millisecond, For: 200 * time.Millisecond,
	}}}
	res, err = RunFaultCampaign(FaultCampaignConfig{Guarded: true, Campaign: &freeze})
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, v := range res.Violations {
		if v.Component == "calc" && v.Kind == contract.PortStale {
			found = true
		}
	}
	if !found {
		t.Errorf("freeze campaign produced no port-stale violation: %v", res.Violations)
	}
	for _, info := range res.Final {
		if info.State != core.Active {
			t.Errorf("after freeze cleared, %s = %v, want ACTIVE", info.Name, info.State)
		}
	}
}

// TestFaultCampaignRejectsBadCampaign: a campaign the injector rejects
// after scheduling its first fault fails the run, and the rig's partial
// teardown (injector and DRCR, no guard yet) does not panic.
func TestFaultCampaignRejectsBadCampaign(t *testing.T) {
	bad := fault.Campaign{Name: "bad", Faults: []fault.Fault{
		{Kind: fault.ExecInflate, Target: "calc", At: 10 * time.Millisecond, For: 10 * time.Millisecond, Factor: 2},
		{Kind: fault.ExecInflate},
	}}
	_, err := RunFaultCampaign(FaultCampaignConfig{Guarded: true, Campaign: &bad})
	if err == nil || !strings.Contains(err.Error(), "needs a target") {
		t.Fatalf("err = %v, want the injector's missing-target error", err)
	}
}

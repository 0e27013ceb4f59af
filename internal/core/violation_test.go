package core

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// TestRevokeBudgetCascadesAndRestores walks the budget-revocation
// transition end to end: revoking the provider's budget drops it to
// UNSATISFIED, the dependant cascades, resolution cannot re-admit the
// offender while revoked, and restoring the budget re-activates the whole
// closure in dependency order.
func TestRevokeBudgetCascadesAndRestores(t *testing.T) {
	_, k, d := newRig(t)
	for _, src := range []string{calcXML, displayXML} {
		if err := d.Deploy(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if st := stateOf(t, d, "calc"); st != Active {
		t.Fatalf("calc = %v, want ACTIVE", st)
	}
	if st := stateOf(t, d, "disp"); st != Active {
		t.Fatalf("disp = %v, want ACTIVE", st)
	}
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if err := d.RevokeBudget("calc", "test violation"); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, d, "calc"); st != Unsatisfied {
		t.Errorf("after revoke, calc = %v, want UNSATISFIED", st)
	}
	if st := stateOf(t, d, "disp"); st != Unsatisfied {
		t.Errorf("after revoke, disp = %v, want UNSATISFIED (cascade)", st)
	}
	info, _ := d.Component("calc")
	if !info.Revoked {
		t.Error("calc Info.Revoked = false after RevokeBudget")
	}
	if _, ok := k.Task("calc"); ok {
		t.Error("calc task still exists after revocation")
	}

	// Resolution must not re-admit a revoked component.
	d.Resolve()
	if st := stateOf(t, d, "calc"); st != Unsatisfied {
		t.Errorf("Resolve re-admitted revoked calc: %v", st)
	}

	revokedAt := k.Now()
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreBudget("calc"); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, d, "calc"); st != Active {
		t.Errorf("after restore, calc = %v, want ACTIVE", st)
	}
	if st := stateOf(t, d, "disp"); st != Active {
		t.Errorf("after restore, disp = %v, want ACTIVE", st)
	}
	info, _ = d.Component("calc")
	if info.Revoked {
		t.Error("calc Info.Revoked still true after RestoreBudget")
	}

	// Re-activation must come in dependency order: the provider's ACTIVE
	// event precedes the dependant's.
	var calcAt, dispAt = -1, -1
	for i, ev := range d.Events() {
		if ev.At <= revokedAt || ev.To != Active {
			continue
		}
		switch ev.Component {
		case "calc":
			if calcAt < 0 {
				calcAt = i
			}
		case "disp":
			if dispAt < 0 {
				dispAt = i
			}
		}
	}
	if calcAt < 0 || dispAt < 0 {
		t.Fatalf("missing re-activation events (calc %d, disp %d)", calcAt, dispAt)
	}
	if calcAt > dispAt {
		t.Errorf("disp re-activated (event %d) before its provider calc (event %d)", dispAt, calcAt)
	}

	// The restored pair must actually run again.
	if err := k.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	task, ok := k.Task("calc")
	if !ok {
		t.Fatal("calc task missing after restore")
	}
	if task.Metrics().Jobs == 0 {
		t.Error("restored calc never ran")
	}
}

func TestRevokeRestoreEdgeCases(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.RevokeBudget("ghost", "x"); !errors.Is(err, ErrUnknownComponent) {
		t.Errorf("RevokeBudget(ghost) = %v, want ErrUnknownComponent", err)
	}
	if err := d.RestoreBudget("ghost"); !errors.Is(err, ErrUnknownComponent) {
		t.Errorf("RestoreBudget(ghost) = %v, want ErrUnknownComponent", err)
	}
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	// Restoring a never-revoked component is a no-op.
	if err := d.RestoreBudget("calc"); err != nil {
		t.Errorf("RestoreBudget on healthy component: %v", err)
	}
	if st := stateOf(t, d, "calc"); st != Active {
		t.Errorf("calc = %v after no-op restore, want ACTIVE", st)
	}
	// Revoking twice is idempotent.
	if err := d.RevokeBudget("calc", "first"); err != nil {
		t.Fatal(err)
	}
	if err := d.RevokeBudget("calc", "second"); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, d, "calc"); st != Unsatisfied {
		t.Errorf("calc = %v after double revoke, want UNSATISFIED", st)
	}
	if err := d.RestoreBudget("calc"); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, d, "calc"); st != Active {
		t.Errorf("calc = %v after restore, want ACTIVE", st)
	}
}

// TestRevokedWaiterLeavesWaiterIndex revokes a SATISFIED admission
// waiter: it must leave its processor's waiter index (no admitted-set
// change can help it while revoked), and once its budget is restored and
// capacity frees up it must be admitted.
func TestRevokedWaiterLeavesWaiterIndex(t *testing.T) {
	_, _, d := newRig(t)
	for _, src := range []string{coneXML("hog", 1, 0.6, "", ""), coneXML("wait", 1, 0.5, "", "")} {
		if err := d.Deploy(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if st := stateOf(t, d, "wait"); st != Satisfied {
		t.Fatalf("wait = %v, want SATISFIED (denied admission)", st)
	}
	if err := d.RevokeBudget("wait", "test violation"); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	waiters := slices.Clone(d.cpus[1].waiters)
	d.mu.Unlock()
	if slices.Contains(waiters, "wait") {
		t.Fatalf("revoked wait still in cpu1's waiter index %v", waiters)
	}
	checkWaiterIndex(t, d)
	if err := d.RestoreBudget("wait"); err != nil {
		t.Fatal(err)
	}
	if err := d.Disable("hog"); err != nil {
		t.Fatal(err)
	}
	if st := stateOf(t, d, "wait"); st != Active {
		t.Fatalf("wait = %v after restore and freed capacity, want ACTIVE", st)
	}
	checkWaiterIndex(t, d)
}

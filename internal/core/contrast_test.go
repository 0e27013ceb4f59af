package core

import "testing"

// TestOutportNameCollisionRefusedAtActivation: two components declaring
// the same outport name cannot both be active — the transport namespace
// is global (RTAI nam2num), and the DRCR surfaces the conflict instead
// of silently cross-wiring.
func TestOutportNameCollisionRefusedAtActivation(t *testing.T) {
	_, k, d := newRig(t)
	mk := func(name string) string {
		return `<component name="` + name + `" type="periodic" cpuusage="0.05">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="1"/>
		  <outport name="shared" interface="RTAI.SHM" type="Byte" size="8"/>
		</component>`
	}
	if err := d.Deploy(mustParse(t, mk("first"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, mk("second"))); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "first"); got != Active {
		t.Fatalf("first = %v", got)
	}
	info, _ := d.Component("second")
	if info.State == Active {
		t.Fatal("colliding outport activated twice")
	}
	if info.LastReason == "" {
		t.Fatal("no reason recorded for the refusal")
	}
	// The loser takes over as soon as the name frees up.
	if err := d.Remove("first"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "second"); got != Active {
		t.Fatalf("second after first's removal = %v", got)
	}
	if _, err := k.IPC().SHM("shared"); err != nil {
		t.Fatalf("transport missing after takeover: %v", err)
	}
}

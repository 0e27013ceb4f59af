package scr

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// TestContrastWithDeclarativeServices demonstrates §2.1's argument
// mechanically: plain Declarative Services activates anything whose
// references are satisfied — it has no notion of a real-time contract —
// while the DRCR refuses the same overload. This is the difference the
// paper builds DRCom for.
func TestContrastWithDeclarativeServices(t *testing.T) {
	// Ten "components" each claiming 20% CPU: 200% total.
	const n, usageEach = 10, 0.2

	// Declarative Services: all ten activate; nothing pushes back.
	fw := osgi.NewFramework()
	ds := NewRuntime(fw)
	defer ds.Close()
	for i := 0; i < n; i++ {
		cls := fmt.Sprintf("load.C%d", i)
		if err := ds.RegisterFactory(cls, func() Instance { return nop{} }); err != nil {
			t.Fatal(err)
		}
		m := manifest.New(fmt.Sprintf("ds.b%d", i), manifest.MustParseVersion("1.0"))
		m.ServiceComponents = []string{"OSGI-INF/c.xml"}
		b, err := fw.Install(osgi.Definition{
			Manifest: m,
			Resources: map[string]string{
				"OSGI-INF/c.xml": fmt.Sprintf(`<component name="dsc%d"><implementation class="%s"/></component>`, i, cls),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
	}
	dsActive := 0
	for _, c := range ds.Components() {
		if c.State() == StateActive {
			dsActive++
		}
	}
	if dsActive != n {
		t.Fatalf("DS activated %d/%d; DS has no admission, all should run", dsActive, n)
	}

	// DRCom: the same demand hits the DRCR's global admission.
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Seed: 17})
	d, err := core.New(osgi.NewFramework(), k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`<component name="rt%02d" type="periodic" cpuusage="%.2f">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="%d"/>
		</component>`, i, usageEach, i+1)
		if err := deployXML(d, src); err != nil {
			t.Fatal(err)
		}
	}
	rtActive, waiting := 0, 0
	for _, info := range d.Components() {
		switch info.State {
		case core.Active:
			rtActive++
		case core.Satisfied:
			waiting++
		}
	}
	if rtActive != 5 { // 5 × 0.2 = 1.0, the budget ceiling
		t.Fatalf("DRCR admitted %d, want exactly the budget's worth (5)", rtActive)
	}
	if waiting != n-5 {
		t.Fatalf("waiting = %d", waiting)
	}
}

// nop is a no-op DS instance.
type nop struct{}

func (nop) Activate(*ComponentContext) error { return nil }
func (nop) Deactivate()                      {}

func deployXML(d *core.DRCR, src string) error {
	c, err := descriptor.Parse(src)
	if err != nil {
		return err
	}
	return d.Deploy(c)
}

package osgi

import (
	"errors"
	"testing"

	"repro/internal/ldap"
	"repro/internal/manifest"
)

type dummyService struct{ name string }

func activeBundle(t *testing.T, fw *Framework, name string) (*Bundle, *Context) {
	t.Helper()
	var ctx *Context
	act := &testActivator{onStart: func(c *Context) error { ctx = c; return nil }}
	b, err := fw.Install(defWithActivator(name, "1.0", act))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return b, ctx
}

func TestRegisterAndGetService(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "provider")
	svc := &dummyService{name: "one"}
	reg, err := ctx.RegisterService([]string{"demo.Service"}, svc, ldap.Properties{"flavour": "vanilla"})
	if err != nil {
		t.Fatal(err)
	}
	ref := ctx.ServiceReference("demo.Service")
	if ref == nil {
		t.Fatal("no reference found")
	}
	if got := ctx.Service(ref); got != svc {
		t.Fatalf("Service = %v", got)
	}
	if got := ref.Property("flavour"); got != "vanilla" {
		t.Fatalf("Property = %v", got)
	}
	if got := ref.Property("FLAVOUR"); got != "vanilla" {
		t.Fatalf("case-insensitive Property = %v", got)
	}
	if ref.ID() <= 0 {
		t.Fatalf("service id = %d", ref.ID())
	}
	if reg.Reference() != ref {
		t.Fatal("registration reference mismatch")
	}
}

func TestRegisterValidation(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	if _, err := ctx.RegisterService(nil, &dummyService{}, nil); err == nil {
		t.Fatal("no interfaces accepted")
	}
	if _, err := ctx.RegisterService([]string{"i"}, nil, nil); err == nil {
		t.Fatal("nil object accepted")
	}
}

func TestRegisterFromNonActiveBundleRejected(t *testing.T) {
	fw := NewFramework()
	b, _ := fw.Install(def("p", "1.0"))
	_ = b
	// Direct framework registration on behalf of an installed bundle.
	if _, err := fw.registerService(b, []string{"i"}, &dummyService{}, nil); err == nil {
		t.Fatal("installed (not started) bundle registered a service")
	}
}

func TestServiceFilterQuery(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{"a"}, ldap.Properties{"grade": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{"b"}, ldap.Properties{"grade": 2}); err != nil {
		t.Fatal(err)
	}
	refs := ctx.ServiceReferences("i", ldap.MustParse("(grade>=2)"))
	if len(refs) != 1 {
		t.Fatalf("filtered refs = %d, want 1", len(refs))
	}
	if svc := ctx.Service(refs[0]).(*dummyService); svc.name != "b" {
		t.Fatalf("got %q", svc.name)
	}
	// objectClass is queryable, spec-style.
	refs = ctx.ServiceReferences("", ldap.MustParse("(objectClass=i)"))
	if len(refs) != 2 {
		t.Fatalf("objectClass query = %d, want 2", len(refs))
	}
}

func TestServiceRankingOrder(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{"low"}, ldap.Properties{PropServiceRanking: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{"high"}, ldap.Properties{PropServiceRanking: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{"default"}, nil); err != nil {
		t.Fatal(err)
	}
	refs := ctx.ServiceReferences("i", nil)
	if len(refs) != 3 {
		t.Fatalf("refs = %d", len(refs))
	}
	first := ctx.Service(refs[0]).(*dummyService)
	if first.name != "high" {
		t.Fatalf("best ref = %q, want high", first.name)
	}
	// Equal ranking ties break to oldest (lowest id).
	last := ctx.Service(refs[2]).(*dummyService)
	if last.name != "default" {
		t.Fatalf("worst ref = %q, want default (ranking 0)", last.name)
	}
}

func TestUnregister(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	reg, _ := ctx.RegisterService([]string{"i"}, &dummyService{}, nil)
	if err := reg.Unregister(); err != nil {
		t.Fatal(err)
	}
	if ref := ctx.ServiceReference("i"); ref != nil {
		t.Fatal("unregistered service still discoverable")
	}
	if got := ctx.Service(reg.Reference()); got != nil {
		t.Fatal("unregistered service still dereferences")
	}
	if err := reg.Unregister(); !errors.Is(err, ErrServiceUnregistered) {
		t.Fatalf("double unregister err = %v", err)
	}
}

func TestServiceEvents(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	var events []ServiceEventType
	ctx.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) {
		events = append(events, ev.Type)
	}), nil)
	reg, _ := ctx.RegisterService([]string{"i"}, &dummyService{}, nil)
	if err := reg.Unregister(); err != nil {
		t.Fatal(err)
	}
	want := []ServiceEventType{ServiceRegistered, ServiceUnregistering}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestServiceListenerFilter(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	var hits int
	ctx.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) {
		hits++
	}), ldap.MustParse("(kind=rt)"))
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{}, ldap.Properties{"kind": "rt"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{}, ldap.Properties{"kind": "other"}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("filtered listener hits = %d, want 1", hits)
	}
}

func TestRemoveServiceListener(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	var hits int
	remove := ctx.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) { hits++ }), nil)
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{}, nil); err != nil {
		t.Fatal(err)
	}
	remove()
	remove() // second removal is harmless
	if _, err := ctx.RegisterService([]string{"j"}, &dummyService{}, nil); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

func TestBundleStopUnregistersItsServices(t *testing.T) {
	fw := NewFramework()
	b, ctx := activeBundle(t, fw, "p")
	if _, err := ctx.RegisterService([]string{"i"}, &dummyService{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	if refs := fw.ServiceReferences("i", nil); len(refs) != 0 {
		t.Fatalf("services survive bundle stop: %d", len(refs))
	}
}

func TestFrameworkLevelService(t *testing.T) {
	fw := NewFramework()
	reg, err := fw.RegisterService([]string{"sys.Service"}, &dummyService{"sys"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Reference().Bundle() != nil {
		t.Fatal("framework service has owning bundle")
	}
	refs := fw.ServiceReferences("sys.Service", nil)
	if len(refs) != 1 {
		t.Fatalf("refs = %d", len(refs))
	}
	if fw.Service(refs[0]).(*dummyService).name != "sys" {
		t.Fatal("wrong service")
	}
}

func TestServiceReferencePropertiesCopy(t *testing.T) {
	fw := NewFramework()
	_, ctx := activeBundle(t, fw, "p")
	reg, _ := ctx.RegisterService([]string{"i"}, &dummyService{}, ldap.Properties{"a": 1})
	props := reg.Reference().Properties()
	props["a"] = 99
	if got := reg.Reference().Property("a"); got != 1 {
		t.Fatalf("Properties() not a copy: %v", got)
	}
}

func TestVersionTypeExposed(t *testing.T) {
	fw := NewFramework()
	b, _ := fw.Install(def("x", "3.4.5"))
	if b.Version() != manifest.MustParseVersion("3.4.5") {
		t.Fatalf("Version = %v", b.Version())
	}
	if b.String() == "" {
		t.Fatal("empty String")
	}
}

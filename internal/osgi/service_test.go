package osgi

import (
	"errors"
	"testing"

	"repro/internal/ldap"
	"repro/internal/manifest"
)

type dummyService struct{ name string }

func TestRegisterAndGetService(t *testing.T) {
	fw := NewFramework()
	svc := &dummyService{name: "one"}
	reg, err := fw.RegisterService([]string{"demo.Service"}, svc, ldap.Properties{"flavour": "vanilla"})
	if err != nil {
		t.Fatal(err)
	}
	refs := fw.ServiceReferences("demo.Service", nil)
	if len(refs) != 1 {
		t.Fatalf("refs = %d, want 1", len(refs))
	}
	ref := refs[0]
	if got := fw.Service(ref); got != svc {
		t.Fatalf("Service = %v", got)
	}
	if got := ref.Property("flavour"); got != "vanilla" {
		t.Fatalf("Property = %v", got)
	}
	if got := ref.Property("FLAVOUR"); got != "vanilla" {
		t.Fatalf("case-insensitive Property = %v", got)
	}
	if ref.id <= 0 {
		t.Fatalf("service id = %d", ref.id)
	}
	if reg.ref != ref {
		t.Fatal("registration reference mismatch")
	}
}

func TestRegisterValidation(t *testing.T) {
	fw := NewFramework()
	if _, err := fw.RegisterService(nil, &dummyService{}, nil); err == nil {
		t.Fatal("no interfaces accepted")
	}
	if _, err := fw.RegisterService([]string{"i"}, nil, nil); err == nil {
		t.Fatal("nil object accepted")
	}
}

func TestServiceFilterQuery(t *testing.T) {
	fw := NewFramework()
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{"a"}, ldap.Properties{"grade": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{"b"}, ldap.Properties{"grade": 2}); err != nil {
		t.Fatal(err)
	}
	refs := fw.ServiceReferences("i", ldap.MustParse("(grade>=2)"))
	if len(refs) != 1 {
		t.Fatalf("filtered refs = %d, want 1", len(refs))
	}
	if svc := fw.Service(refs[0]).(*dummyService); svc.name != "b" {
		t.Fatalf("got %q", svc.name)
	}
	// objectClass is queryable, spec-style.
	refs = fw.ServiceReferences("", ldap.MustParse("(objectClass=i)"))
	if len(refs) != 2 {
		t.Fatalf("objectClass query = %d, want 2", len(refs))
	}
}

func TestServiceRankingOrder(t *testing.T) {
	fw := NewFramework()
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{"low"}, ldap.Properties{PropServiceRanking: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{"high"}, ldap.Properties{PropServiceRanking: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{"default"}, nil); err != nil {
		t.Fatal(err)
	}
	refs := fw.ServiceReferences("i", nil)
	if len(refs) != 3 {
		t.Fatalf("refs = %d", len(refs))
	}
	first := fw.Service(refs[0]).(*dummyService)
	if first.name != "high" {
		t.Fatalf("best ref = %q, want high", first.name)
	}
	// Equal ranking ties break to oldest (lowest id).
	last := fw.Service(refs[2]).(*dummyService)
	if last.name != "default" {
		t.Fatalf("worst ref = %q, want default (ranking 0)", last.name)
	}
}

func TestUnregister(t *testing.T) {
	fw := NewFramework()
	reg, _ := fw.RegisterService([]string{"i"}, &dummyService{}, nil)
	if err := reg.Unregister(); err != nil {
		t.Fatal(err)
	}
	if refs := fw.ServiceReferences("i", nil); len(refs) != 0 {
		t.Fatal("unregistered service still discoverable")
	}
	if got := fw.Service(reg.ref); got != nil {
		t.Fatal("unregistered service still dereferences")
	}
	if err := reg.Unregister(); !errors.Is(err, ErrServiceUnregistered) {
		t.Fatalf("double unregister err = %v", err)
	}
}

func TestServiceEvents(t *testing.T) {
	fw := NewFramework()
	var events []ServiceEventType
	fw.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) {
		events = append(events, ev.Type)
	}), nil)
	reg, _ := fw.RegisterService([]string{"i"}, &dummyService{}, nil)
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
	var hits int
	fw.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) {
		hits++
	}), ldap.MustParse("(kind=rt)"))
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{}, ldap.Properties{"kind": "rt"}); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{}, ldap.Properties{"kind": "other"}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("filtered listener hits = %d, want 1", hits)
	}
}

func TestRemoveServiceListener(t *testing.T) {
	fw := NewFramework()
	var hits int
	remove := fw.AddServiceListener(ServiceListenerFunc(func(ev ServiceEvent) { hits++ }), nil)
	if _, err := fw.RegisterService([]string{"i"}, &dummyService{}, nil); err != nil {
		t.Fatal(err)
	}
	remove()
	remove() // second removal is harmless
	if _, err := fw.RegisterService([]string{"j"}, &dummyService{}, nil); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

func TestFrameworkLevelService(t *testing.T) {
	fw := NewFramework()
	_, err := fw.RegisterService([]string{"sys.Service"}, &dummyService{"sys"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := fw.ServiceReferences("sys.Service", nil)
	if len(refs) != 1 {
		t.Fatalf("refs = %d", len(refs))
	}
	if fw.Service(refs[0]).(*dummyService).name != "sys" {
		t.Fatal("wrong service")
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

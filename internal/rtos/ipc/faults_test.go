package ipc

import "testing"

func TestMailboxFaultModes(t *testing.T) {
	var r Registry
	m, err := r.CreateMailbox("box", 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.fault != MailboxHealthy {
		t.Fatalf("new mailbox fault = %v, want healthy", m.fault)
	}

	m.SetFault(MailboxDropAll)
	if err := m.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(m.q) != 0 {
		t.Errorf("drop-all mailbox holds %d messages, want 0", len(m.q))
	}
	_, _, dropped := m.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}

	m.SetFault(MailboxDuplicate)
	if err := m.Send([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if len(m.q) != 2 {
		t.Errorf("duplicate mailbox holds %d messages, want 2", len(m.q))
	}
	a, _ := m.Receive()
	b, _ := m.Receive()
	if len(a) != 1 || len(b) != 1 || a[0] != 2 || b[0] != 2 {
		t.Errorf("duplicate copies = %v, %v, want [2], [2]", a, b)
	}

	m.SetFault(MailboxHealthy)
	if err := m.Send([]byte{3}); err != nil {
		t.Fatal(err)
	}
	if len(m.q) != 1 {
		t.Errorf("healed mailbox holds %d messages, want 1", len(m.q))
	}
}

func TestMailboxDuplicateRespectsCapacity(t *testing.T) {
	var r Registry
	m, err := r.CreateMailbox("box", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFault(MailboxDuplicate)
	if err := m.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// The original fits; the duplicate must not overflow the capacity.
	if len(m.q) != 1 {
		t.Errorf("mailbox holds %d messages, want 1 (cap)", len(m.q))
	}
}

func TestSHMFreeze(t *testing.T) {
	var r Registry
	s, err := r.CreateSHM("seg", Integer, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set(0, 7); err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()

	s.SetFrozen(true)
	if !s.frozen {
		t.Fatal("not frozen after SetFrozen(true)")
	}
	if err := s.Set(0, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(0); v != 7 {
		t.Errorf("frozen segment value = %d, want 7 (write ignored)", v)
	}
	if s.Generation() != gen {
		t.Errorf("frozen segment generation advanced: %d -> %d", gen, s.Generation())
	}

	s.SetFrozen(false)
	if err := s.Set(0, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(0); v != 9 {
		t.Errorf("thawed segment value = %d, want 9", v)
	}
	if s.Generation() == gen {
		t.Error("thawed segment generation did not advance")
	}
}

package ipc

// Deterministic IPC fault modes, the hooks the fault injector (package
// fault) flips during a campaign. All objects default to healthy; fault
// state is plain data, so two runs applying the same mode at the same
// virtual instant behave byte-for-byte identically.

// MailboxFault selects a delivery fault on a mailbox.
type MailboxFault int

// Mailbox fault modes.
const (
	// MailboxHealthy delivers normally.
	MailboxHealthy MailboxFault = iota
	// MailboxDropAll makes Send report success while discarding the
	// message — the silent message-loss fault.
	MailboxDropAll
	// MailboxDuplicate enqueues every sent message twice (capacity
	// permitting) — the duplicate-delivery fault.
	MailboxDuplicate
)

func (f MailboxFault) String() string {
	switch f {
	case MailboxHealthy:
		return "healthy"
	case MailboxDropAll:
		return "drop-all"
	case MailboxDuplicate:
		return "duplicate"
	default:
		return "MailboxFault(?)"
	}
}

// SetFault switches the mailbox delivery fault mode.
func (m *Mailbox) SetFault(f MailboxFault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fault = f
}

// SetFrozen freezes or thaws the segment. A frozen segment silently
// ignores writes (the generation counter stays put), so consumers keep
// reading stale data — the port-staleness fault a freshness monitor must
// catch.
func (s *SHM) SetFrozen(frozen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frozen = frozen
}

// Package ipc implements the RTAI-style inter-process communication
// objects DRCom ports map onto: named typed shared-memory segments
// (RTAI.SHM) and bounded asynchronous mailboxes (RTAI.Mailbox).
//
// Names follow the RTAI nam2num convention the paper inherits: one to six
// characters. All objects live in a Registry owned by the simulated
// kernel; operations are non-blocking, matching the paper's requirement
// that real-time code never waits on the management plane.
package ipc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// MaxNameLen is the RTAI six-character object name limit.
const MaxNameLen = 6

// ElemType is the element type of a typed SHM segment or mailbox slot.
type ElemType int

// Supported element types (the paper's descriptor schema allows Integer
// and Byte).
const (
	Integer ElemType = iota + 1 // 4 bytes
	Byte                        // 1 byte
)

// Size returns the element size in bytes.
func (t ElemType) Size() int {
	switch t {
	case Integer:
		return 4
	case Byte:
		return 1
	default:
		return 0
	}
}

func (t ElemType) String() string {
	switch t {
	case Integer:
		return "Integer"
	case Byte:
		return "Byte"
	default:
		return fmt.Sprintf("ElemType(%d)", int(t))
	}
}

// ParseElemType parses the descriptor spelling of an element type.
func ParseElemType(s string) (ElemType, error) {
	switch s {
	case "Integer", "integer", "INTEGER":
		return Integer, nil
	case "Byte", "byte", "BYTE":
		return Byte, nil
	default:
		return 0, fmt.Errorf("ipc: unknown element type %q", s)
	}
}

// Common errors.
var (
	ErrBadName   = errors.New("ipc: name must be 1..6 characters")
	ErrExists    = errors.New("ipc: object already exists")
	ErrNotFound  = errors.New("ipc: object not found")
	ErrFull      = errors.New("ipc: mailbox full")
	ErrEmpty     = errors.New("ipc: mailbox empty")
	ErrBadBounds = errors.New("ipc: index out of bounds")
)

// ValidName reports whether s is a legal RTAI object name.
func ValidName(s string) bool {
	return len(s) >= 1 && len(s) <= MaxNameLen
}

// SHM is a named, typed shared-memory segment. Reads and writes are
// non-blocking; concurrent access is serialised internally (the simulated
// kernel is single-threaded, but examples may touch segments from test
// goroutines).
type SHM struct {
	name   string
	typ    ElemType
	mu     sync.Mutex
	words  []int64 // one logical cell per element regardless of ElemType
	gen    uint64  // bumped on every write, for freshness checks
	frozen bool    // fault injection: writes silently ignored (see faults.go)
}

// Len returns the number of elements.
func (s *SHM) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.words)
}

// Set writes one element.
func (s *SHM) Set(i int, v int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.words) {
		return ErrBadBounds
	}
	if s.frozen {
		return nil // staleness fault: the write is silently lost
	}
	s.words[i] = clampElem(s.typ, v)
	s.gen++
	return nil
}

// Get reads one element.
func (s *SHM) Get(i int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.words) {
		return 0, ErrBadBounds
	}
	return s.words[i], nil
}

// WriteAll replaces the segment contents; vs longer than the segment is an
// error, shorter writes leave the tail untouched.
func (s *SHM) WriteAll(vs []int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(vs) > len(s.words) {
		return ErrBadBounds
	}
	if s.frozen {
		return nil // staleness fault: the write is silently lost
	}
	for i, v := range vs {
		s.words[i] = clampElem(s.typ, v)
	}
	s.gen++
	return nil
}

// ReadAll returns a copy of the segment contents.
func (s *SHM) ReadAll() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.words))
	copy(out, s.words)
	return out
}

// Generation returns the write counter; consumers can detect fresh data
// without blocking, the way the paper's display task polls the calc
// task's output.
func (s *SHM) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

func clampElem(t ElemType, v int64) int64 {
	switch t {
	case Byte:
		return int64(uint8(v))
	case Integer:
		return int64(int32(v))
	default:
		return v
	}
}

// Mailbox is a named bounded FIFO of byte-slice messages with
// non-blocking send and receive, the RTAI mailbox the paper uses for the
// management command channel.
type Mailbox struct {
	name string
	mu   sync.Mutex
	cap  int
	q    [][]byte

	sent     uint64
	received uint64
	dropped  uint64

	fault MailboxFault // fault injection: delivery mode (see faults.go)
}

// Send enqueues a message without blocking; ErrFull if at capacity. The
// message is copied.
func (m *Mailbox) Send(msg []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fault == MailboxDropAll {
		m.dropped++
		return nil // silent-loss fault: the sender believes it succeeded
	}
	if len(m.q) >= m.cap {
		m.dropped++
		return ErrFull
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	m.q = append(m.q, cp)
	m.sent++
	if m.fault == MailboxDuplicate && len(m.q) < m.cap {
		dup := make([]byte, len(msg))
		copy(dup, msg)
		m.q = append(m.q, dup)
		m.sent++
	}
	return nil
}

// Receive dequeues the oldest message without blocking; ErrEmpty if none.
func (m *Mailbox) Receive() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		return nil, ErrEmpty
	}
	msg := m.q[0]
	m.q = m.q[1:]
	m.received++
	return msg, nil
}

// Stats reports lifetime counters: messages sent, received and dropped
// (send attempts against a full box).
func (m *Mailbox) Stats() (sent, received, dropped uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent, m.received, m.dropped
}

// Registry is the kernel's table of named IPC objects. The zero value is
// ready to use.
type Registry struct {
	mu    sync.Mutex
	shms  map[string]*SHM
	boxes map[string]*Mailbox
}

// CreateSHM allocates a named segment of n elements of type t.
func (r *Registry) CreateSHM(name string, t ElemType, n int) (*SHM, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if t.Size() == 0 {
		return nil, fmt.Errorf("ipc: bad element type %v", t)
	}
	if n <= 0 {
		return nil, fmt.Errorf("ipc: segment size %d must be positive", n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shms == nil {
		r.shms = map[string]*SHM{}
	}
	if _, dup := r.shms[name]; dup {
		return nil, fmt.Errorf("%w: shm %q", ErrExists, name)
	}
	s := &SHM{name: name, typ: t, words: make([]int64, n)}
	r.shms[name] = s
	return s, nil
}

// SHM looks up a segment by name.
func (r *Registry) SHM(name string) (*SHM, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.shms[name]
	if !ok {
		return nil, fmt.Errorf("%w: shm %q", ErrNotFound, name)
	}
	return s, nil
}

// DeleteSHM removes a segment.
func (r *Registry) DeleteSHM(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.shms[name]; !ok {
		return fmt.Errorf("%w: shm %q", ErrNotFound, name)
	}
	delete(r.shms, name)
	return nil
}

// CreateMailbox allocates a named mailbox holding up to capacity messages.
func (r *Registry) CreateMailbox(name string, capacity int) (*Mailbox, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("ipc: mailbox capacity %d must be positive", capacity)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.boxes == nil {
		r.boxes = map[string]*Mailbox{}
	}
	if _, dup := r.boxes[name]; dup {
		return nil, fmt.Errorf("%w: mailbox %q", ErrExists, name)
	}
	m := &Mailbox{name: name, cap: capacity}
	r.boxes[name] = m
	return m, nil
}

// Mailbox looks up a mailbox by name.
func (r *Registry) Mailbox(name string) (*Mailbox, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.boxes[name]
	if !ok {
		return nil, fmt.Errorf("%w: mailbox %q", ErrNotFound, name)
	}
	return m, nil
}

// DeleteMailbox removes a mailbox.
func (r *Registry) DeleteMailbox(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.boxes[name]; !ok {
		return fmt.Errorf("%w: mailbox %q", ErrNotFound, name)
	}
	delete(r.boxes, name)
	return nil
}

// Names lists all object names, SHM first then mailboxes, each sorted.
func (r *Registry) Names() (shms, boxes []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.shms {
		shms = append(shms, n)
	}
	for n := range r.boxes {
		boxes = append(boxes, n)
	}
	sort.Strings(shms)
	sort.Strings(boxes)
	return shms, boxes
}

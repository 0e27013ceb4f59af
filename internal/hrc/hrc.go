// Package hrc implements the paper's Hybrid Real-time Component approach
// (§3.1-§3.2): each component splits into a small real-time part running
// as an RTAI task and a large management part living in the OSGi world,
// bridged by an asynchronous command channel so the real-time code never
// waits for the management plane.
//
// Commands (suspend, set-property) travel through an RTAI mailbox and are
// served when the task finishes its main functional routine, exactly as
// §3.2 prescribes; status flows the other way through a snapshot the RT
// part publishes after every job. Resume is the one direct call — a
// suspended task cannot poll its mailbox, so the management part resumes
// it through the kernel, the LXRT rt_task_resume analogue.
package hrc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/rtos"
	"repro/internal/rtos/ipc"
	"repro/internal/sim"
)

// Command opcodes on the intra-component mailbox.
const (
	opSuspend = "suspend"
	opSet     = "set"
)

// DefaultCommandPollCost is the per-job cost of the end-of-routine
// command poll, the measurable overhead of the hybrid approach.
const DefaultCommandPollCost = 150 * time.Nanosecond

// DefaultSyncCommandCost models servicing one command synchronously
// inside the RT path (the design the paper rejects): a handler burst that
// delays the real-time task.
const DefaultSyncCommandCost = 30 * time.Microsecond

// DefaultMailboxCapacity bounds the command queue.
const DefaultMailboxCapacity = 16

// Status is the RT-side snapshot the management part reads without
// blocking the task. It is refreshed once per job, so it may be up to one
// period stale — the price of strict asynchrony.
type Status struct {
	TaskState      rtos.TaskState
	Jobs           uint64
	Misses         uint64
	Skips          uint64
	LastJobAt      sim.Time
	CommandsServed uint64
	CommandsLost   uint64 // mailbox-full drops observed by the sender
}

// Config assembles a hybrid component.
type Config struct {
	// Kernel is the RT container.
	Kernel *rtos.Kernel
	// Spec is the RT task contract; Body and Overhead are managed by the
	// wrapper and must be left empty.
	Spec rtos.TaskSpec
	// Body is the functional routine of the RT part.
	Body rtos.Body
	// CommandPollCost overrides DefaultCommandPollCost when positive.
	CommandPollCost time.Duration
	// MailboxCapacity overrides DefaultMailboxCapacity when positive.
	MailboxCapacity int
	// Props seeds the RT-side configurable parameters.
	Props map[string]string
	// Sync switches the bridge to synchronous command handling, for the
	// ablation of §3.2's design choice. Commands then apply immediately
	// and each one injects a high-priority handler burst on the task's
	// CPU, perturbing the RT schedule.
	Sync bool
}

// Component is a live hybrid component.
type Component struct {
	k       *rtos.Kernel
	task    *rtos.Task
	box     *ipc.Mailbox
	sync    bool
	handler *rtos.Task // sync-mode command burst injector

	mu     sync.Mutex
	props  map[string]string
	status Status
	lost   uint64

	userBody rtos.Body
	closed   bool
}

// New builds the component: RT task plus command mailbox. The task is
// created but not started; call Start.
func New(cfg Config) (*Component, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("hrc: nil kernel")
	}
	if cfg.Spec.Body != nil || cfg.Spec.Overhead != 0 {
		return nil, errors.New("hrc: Spec.Body and Spec.Overhead are managed by the wrapper")
	}
	pollCost := cfg.CommandPollCost
	if pollCost <= 0 {
		pollCost = DefaultCommandPollCost
	}
	capacity := cfg.MailboxCapacity
	if capacity <= 0 {
		capacity = DefaultMailboxCapacity
	}
	c := &Component{
		k:        cfg.Kernel,
		sync:     cfg.Sync,
		userBody: cfg.Body,
	}
	if len(cfg.Props) > 0 {
		c.props = make(map[string]string, len(cfg.Props))
		for k, v := range cfg.Props {
			c.props[k] = v
		}
	}
	box, err := cfg.Kernel.IPC().CreateMailbox(cfg.Spec.Name, capacity)
	if err != nil {
		return nil, fmt.Errorf("hrc: command mailbox: %w", err)
	}
	c.box = box
	spec := cfg.Spec
	spec.Body = c.rtBody
	spec.Overhead = pollCost
	task, err := cfg.Kernel.CreateTask(spec)
	if err != nil {
		_ = cfg.Kernel.IPC().DeleteMailbox(cfg.Spec.Name)
		return nil, fmt.Errorf("hrc: rt task: %w", err)
	}
	c.task = task
	if cfg.Sync {
		h, err := cfg.Kernel.CreateTask(rtos.TaskSpec{
			Name:     handlerName(cfg.Spec.Name),
			Type:     rtos.Aperiodic,
			CPU:      cfg.Spec.CPU,
			Priority: 0, // command handling preempts everything in sync mode
			ExecTime: DefaultSyncCommandCost,
		})
		if err != nil {
			_ = task.Delete()
			_ = cfg.Kernel.IPC().DeleteMailbox(cfg.Spec.Name)
			return nil, fmt.Errorf("hrc: sync handler task: %w", err)
		}
		c.handler = h
	}
	return c, nil
}

// handlerName derives a distinct ≤6-char task name for the sync-mode
// command handler.
func handlerName(base string) string {
	if len(base) < 6 {
		return base + "!"
	}
	return base[:5] + "!"
}

// Task exposes the RT part.
func (c *Component) Task() *rtos.Task { return c.task }

// Start activates the RT part.
func (c *Component) Start() error {
	if c.closed {
		return errors.New("hrc: component closed")
	}
	if c.handler != nil {
		if err := c.handler.Start(); err != nil {
			return err
		}
	}
	return c.task.Start()
}

// rtBody is the RT-side loop body: functional routine, then status
// publication, then the asynchronous command poll (§3.2 ordering).
func (c *Component) rtBody(j *rtos.JobContext) {
	if c.userBody != nil {
		c.userBody(j)
	}
	c.publishStatus(j)
	if !c.sync {
		c.serveCommands()
	}
}

func (c *Component) publishStatus(j *rtos.JobContext) {
	jobs, misses, skips := c.task.Counters()
	c.mu.Lock()
	served := c.status.CommandsServed
	c.status = Status{
		TaskState:      c.task.State(),
		Jobs:           jobs,
		Misses:         misses,
		Skips:          skips,
		LastJobAt:      j.Now,
		CommandsServed: served,
		CommandsLost:   c.lost,
	}
	c.mu.Unlock()
}

func (c *Component) serveCommands() {
	for {
		msg, err := c.box.Receive()
		if err != nil {
			return // ErrEmpty: nothing to serve, never block
		}
		c.applyCommand(string(msg))
	}
}

func (c *Component) applyCommand(msg string) {
	parts := strings.SplitN(msg, "\x00", 3)
	c.mu.Lock()
	c.status.CommandsServed++
	c.mu.Unlock()
	switch parts[0] {
	case opSuspend:
		_ = c.task.Suspend() // task acts on itself at the job boundary
	case opSet:
		if len(parts) == 3 {
			c.mu.Lock()
			if c.props == nil {
				c.props = map[string]string{}
			}
			c.props[parts[1]] = parts[2]
			c.mu.Unlock()
		}
	}
}

// send delivers a command asynchronously (mailbox) or, in sync mode,
// applies it immediately and injects the handler burst into the RT
// schedule.
func (c *Component) send(msg string) error {
	if c.closed {
		return errors.New("hrc: component closed")
	}
	if c.sync {
		c.applyCommand(msg)
		if c.handler != nil && c.handler.State() == rtos.TaskActive {
			return c.handler.Trigger()
		}
		return nil
	}
	if err := c.box.Send([]byte(msg)); err != nil {
		c.mu.Lock()
		c.lost++
		c.mu.Unlock()
		return fmt.Errorf("hrc: command dropped: %w", err)
	}
	return nil
}

// Management interface (paper §2.4): suspend, resume, get/set properties,
// and status of the real-time task. init/uninit are deliberately absent —
// only the DRCR may create or destroy instances.

// Suspend asks the RT part to suspend at its next job boundary.
func (c *Component) Suspend() error { return c.send(opSuspend) }

// Resume reactivates the RT part immediately (rt_task_resume analogue —
// a suspended task cannot poll its own mailbox).
func (c *Component) Resume() error {
	if c.closed {
		return errors.New("hrc: component closed")
	}
	return c.task.Resume()
}

// SetProperty updates an RT-side parameter at the next job boundary (or
// immediately in sync mode).
func (c *Component) SetProperty(key, value string) error {
	if key == "" || strings.Contains(key, "\x00") {
		return errors.New("hrc: bad property key")
	}
	return c.send(opSet + "\x00" + key + "\x00" + value)
}

// Property reads a property from the management-side mirror.
func (c *Component) Property(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.props[key]
	return v, ok
}

// Status returns the last snapshot the RT part published (up to one
// period stale; strictly non-blocking).
func (c *Component) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.status
	st.CommandsLost = c.lost
	return st
}

// Close tears down the RT task, the handler, and the mailbox. Only the
// DRCR calls this (the descriptor model hides init/uninit from clients).
func (c *Component) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var firstErr error
	if err := c.task.Delete(); err != nil && !errors.Is(err, rtos.ErrTaskDeleted) {
		firstErr = err
	}
	if c.handler != nil {
		if err := c.handler.Delete(); err != nil && !errors.Is(err, rtos.ErrTaskDeleted) && firstErr == nil {
			firstErr = err
		}
	}
	if err := c.k.IPC().DeleteMailbox(c.task.Name()); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

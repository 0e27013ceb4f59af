package workload

import (
	"fmt"
	"time"

	"repro/internal/rtos"
)

// LinuxPriority is the priority band the simulated non-real-time (Linux)
// side runs in: far below every RT component, mirroring RTAI's dual-
// kernel guarantee that RT tasks outrank all Linux processes.
const LinuxPriority = 1_000_000

// BackgroundLoad is a set of lowest-priority tasks standing in for the
// stress commands of §4.4 ("we use the following three commands accompany
// with our OSGi platform. The CPU usage is close to 100%"). They soak
// whatever CPU the RT set leaves idle, but — being below every RT
// priority — can never delay an RT dispatch: the mechanical half of the
// stress-mode story (the timing-model half lives in rtos.StressTiming).
type BackgroundLoad struct {
	tasks []*rtos.Task
}

// NewBackgroundLoad creates n hog tasks on the given CPU with combined
// demand ~100%. Task names are "hogN".
func NewBackgroundLoad(k *rtos.Kernel, cpuID, n int) (*BackgroundLoad, error) {
	if n <= 0 || n > 99 {
		return nil, fmt.Errorf("workload: background load n %d out of range", n)
	}
	period := 10 * time.Millisecond
	exec := period / time.Duration(n) // sums to ~the whole period
	bl := &BackgroundLoad{}
	for i := 0; i < n; i++ {
		t, err := k.CreateTask(rtos.TaskSpec{
			Name:     fmt.Sprintf("hog%d", i),
			Type:     rtos.Periodic,
			CPU:      cpuID,
			Priority: LinuxPriority + i,
			Period:   period,
			ExecTime: exec,
		})
		if err != nil {
			bl.Stop()
			return nil, err
		}
		bl.tasks = append(bl.tasks, t)
	}
	return bl, nil
}

// Start begins the load.
func (b *BackgroundLoad) Start() error {
	for _, t := range b.tasks {
		if err := t.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop deletes the load tasks.
func (b *BackgroundLoad) Stop() {
	for _, t := range b.tasks {
		_ = t.Delete()
	}
	b.tasks = nil
}

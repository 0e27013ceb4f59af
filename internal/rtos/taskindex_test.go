package rtos

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestTaskIndexMatchesSortedMap drives seeded create/start/suspend/delete
// churn and checks, after a random third of the operations, that Tasks is
// the task map sorted by name and that Utilization equals the
// name-ordered sum over the map bit for bit.
func TestTaskIndexMatchesSortedMap(t *testing.T) {
	const cpus = 3
	k := NewKernel(Config{NumCPUs: cpus, Seed: 31})
	rng := rand.New(rand.NewSource(31))
	for op := 0; op < 3000; op++ {
		name := fmt.Sprintf("t%03d", rng.Intn(120))
		task, live := k.Task(name)
		switch {
		case !live:
			period := time.Duration(1+rng.Intn(9)) * time.Millisecond
			nt, err := k.CreateTask(TaskSpec{Name: name, Type: Periodic, CPU: rng.Intn(cpus),
				Period: period, ExecTime: time.Duration(1+rng.Intn(300)) * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) > 0 {
				if err := nt.Start(); err != nil {
					t.Fatal(err)
				}
			}
		case rng.Intn(4) == 0:
			_ = task.Suspend()
		default:
			if err := task.Delete(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(3) > 0 {
			continue // let several changes pile up between reads
		}
		names := make([]string, 0, len(k.tasks))
		for n := range k.tasks {
			names = append(names, n)
		}
		sort.Strings(names)
		got := k.Tasks()
		if len(got) != len(names) {
			t.Fatalf("op %d: Tasks has %d tasks, the map %d", op, len(got), len(names))
		}
		for i, n := range names {
			if got[i] != k.tasks[n] {
				t.Fatalf("op %d: Tasks[%d] = %s, want %s", op, i, got[i].spec.Name, n)
			}
		}
	}
}

package sim

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkClockScheduleStep measures one dispatch of a loaded kernel's
// event loop: the queue holds 128 live events (the steady-app workload
// averages about 115), each fired event schedules its successor, and one
// event in ten is cancelled before it is due, so about 9% of pops skip a
// dead entry (steady-app measures 8.6%). One op is one fired event.
func BenchmarkClockScheduleStep(b *testing.B) {
	const live = 128
	rng := rand.New(rand.NewPCG(1, 2))
	var delays [1024]Duration
	for i := range delays {
		delays[i] = Duration(1 + rng.IntN(20000))
	}
	c := NewClock()
	n := 0
	var fire Handler
	fire = func(now Time) {
		n++
		if _, err := c.Schedule(now.Add(delays[n%len(delays)]), "tick", fire); err != nil {
			b.Fatal(err)
		}
		if n%10 == 0 {
			ev, err := c.Schedule(now.Add(delays[(n*7)%len(delays)]), "doomed", nopHandler)
			if err != nil {
				b.Fatal(err)
			}
			ev.Cancel()
		}
	}
	for i := 0; i < live; i++ {
		if _, err := c.Schedule(Time(delays[i]), "tick", fire); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10*live; i++ { // reach the steady mix of dead entries
		c.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.Fatal("queue drained")
		}
	}
	b.StopTimer()
	if got := c.Pending(); got != live {
		b.Fatalf("Pending = %d, want %d", got, live)
	}
}

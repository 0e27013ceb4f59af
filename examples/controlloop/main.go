// Command controlloop replays the paper's §4.3 dynamicity scenario with
// the §4.2 component pair: the Display component functionally depends on
// the Calculation component's outport, so the DRCR activates and
// deactivates it automatically as Calculation's bundle starts and stops.
// It then prints the latency comparison of the two implementations
// (Table 1's light-mode rows) for a short run.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	fmt.Println("== §4.3 dynamicity scenario (Calculation ⇄ Display)")
	res, err := workload.RunDynamicityScenario(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %-4s %-55s %-12s %-12s\n", "step", "event", "calc", "disp")
	for _, s := range res.Steps {
		fmt.Printf("   %-4s %-55s %-12s %-12s\n", s.At, s.Description, s.CalcState, s.DispState)
	}

	fmt.Println("\n== DRCR lifecycle timeline (the process figures §4.3 had no page budget for)")
	fmt.Println(bench.Timeline(res.Events))

	fmt.Println("\n== light-mode latency, 10k samples per implementation")
	out, rows, err := bench.Table1(10000, 42, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
	fmt.Println("== side by side with the published Table 1")
	fmt.Println(bench.CompareWithPaper(rows))
}

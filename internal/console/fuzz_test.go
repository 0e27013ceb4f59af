package console

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzMaxRun bounds the simulated time one fuzzed command may advance,
// so an input like "run 100h" costs milliseconds of wall time, not hours.
const fuzzMaxRun = 20 * time.Millisecond

// fuzzSeeds holds one well-formed line per help command, so the corpus
// starts from every command the console offers.
var fuzzSeeds = []string{
	"help", "quit", "exit",
	"deploy camera.xml", "plan camera.xml modes.xml",
	"remove camera", "enable camera", "disable camera", "suspend camera", "resume camera",
	"run 5ms", "mode stress", "modes", "downgrade camera too hot", "promote camera",
	"admit camera.xml -dry",
	"list", "lb", "ss", "events", "spans 5", "why camera", "metrics", "watch 5ms",
	"flightrec", "timeline", "latency", "view", "status camera", "set camera rate 5",
	"trace on", "gantt 5ms", "nodes", "links", "migrate camera n1",
}

// fuzzArity lists the argument counts each command accepts (max < 0:
// unbounded). A line outside its command's range is malformed and must
// be answered with an error line. Commands absent here (help, quit,
// exit) ignore any arguments given.
var fuzzArity = map[string][2]int{
	"deploy": {1, 1}, "plan": {1, -1}, "remove": {1, 1}, "enable": {1, 1},
	"disable": {1, 1}, "suspend": {1, 1}, "resume": {1, 1}, "run": {1, 1},
	"mode": {1, 1}, "downgrade": {1, -1}, "promote": {1, 1},
	"admit": {1, -1}, "spans": {0, 1}, "why": {1, 1}, "watch": {1, 1},
	"flightrec": {0, 1}, "status": {1, 1}, "set": {3, 3}, "trace": {1, 1},
	"gantt": {1, 1}, "migrate": {2, 2},
	"modes": {0, 0}, "list": {0, 0}, "lb": {0, 0}, "ss": {0, 0}, "events": {0, 0},
	"metrics": {0, 0}, "timeline": {0, 0}, "latency": {0, 0}, "view": {0, 0},
	"nodes": {0, 0}, "links": {0, 0},
}

// helpCommands parses the command names out of the help text.
func helpCommands(t testing.TB) []string {
	c, out := newConsole(t)
	c.Exec("help")
	var cmds []string
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "   ") {
			continue
		}
		word := strings.Fields(line)[0]
		cmds = append(cmds, strings.Split(word, "|")...)
	}
	return cmds
}

// FuzzExec feeds arbitrary command lines to a console over a system
// with a deployed, active component. No input may panic; an unknown
// command, a wrong argument count or an unparseable duration must be
// answered with an "error:" line.
func FuzzExec(f *testing.F) {
	seeded := map[string]bool{}
	for _, s := range fuzzSeeds {
		seeded[strings.Fields(s)[0]] = true
		f.Add(s)
	}
	known := map[string]bool{"help": true, "exit": true, "lb": true, "ss": true}
	for _, cmd := range helpCommands(f) {
		known[cmd] = true
		if !seeded[cmd] {
			f.Fatalf("help command %q has no fuzz seed", cmd)
		}
	}
	for _, s := range []string{"bogus", "run notaduration", "run -3ms", "spans -1", "set camera",
		"deploy nope.xml", "why ghost", "trace sideways", "admit camera.xml", "run 1h",
		"list extra", "nodes x", "events 5", "view cpu0", "forecast camera"} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return
		}
		cmd, args := fields[0], fields[1:]
		malformed := !known[cmd]
		if r, ok := fuzzArity[cmd]; ok && (len(args) < r[0] || (r[1] >= 0 && len(args) > r[1])) {
			malformed = true
		}
		switch cmd {
		case "run", "watch", "gantt":
			if len(args) == 0 {
				break
			}
			if d, err := time.ParseDuration(args[0]); err != nil {
				malformed = true
			} else if d > fuzzMaxRun {
				args[0] = fuzzMaxRun.String()
			}
		}

		c, out := newConsole(t)
		c.Exec("deploy camera.xml")
		out.Reset()
		c.Exec(strings.Join(append([]string{cmd}, args...), " "))
		got := out.String()
		if malformed && !strings.Contains(got, "error: ") {
			t.Fatalf("malformed %q produced no error line:\n%s", line, got)
		}
		if !known[cmd] && got != "error: unknown command "+strconv.Quote(cmd)+" (try help)\n" {
			t.Fatalf("unknown command %q: got %q", cmd, got)
		}
		if strings.Contains(got, "%!") {
			t.Fatalf("%q hit a format-verb mismatch:\n%s", line, got)
		}
	})
}

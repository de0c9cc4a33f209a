// Command tracecheck validates a Chrome-trace JSON emitted by
// caslock-attack/lockbench -trace: the file must parse, contain every
// required span name, and the attack's phase spans must cover its
// wall-clock within a tolerance — catching both a broken writer and a
// phase that silently stopped being instrumented.
//
//	tracecheck -in out.json
//	tracecheck -in out.json -require attack,enumerate,decode,algo1,algo2,verify
//	tracecheck -events run.ndjson
//
// -events validates a caslock-attack -events-out NDJSON stream instead
// of (or alongside) a trace: every line must parse as one event,
// sequence numbers must be strictly increasing, no phase may exit
// before entering, DIP counts must be monotone non-decreasing, and the
// stream must end with a terminal done event at fraction 1.
//
// Coverage: for each "attack" span, the durations of the other required
// spans that fall inside its window must sum to at least
// attackDur − max(tolerance·attackDur, slack). Nested re-decodes can
// push the sum past 100%; the check is a lower bound only. Names in
// -coverage-extra (default "calibrate") also count toward the sum when
// present, but are not required — they only appear on configurations
// that run those phases — and never enable the check on their own:
// `-require attack` alone asserts presence of the root span without a
// coverage bound (interrupted runs flush spans for whatever phases ran).
//
// Exit codes: 0 — trace valid; 1 — validation failed; 2 — usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// event mirrors the fields of a Chrome-trace "X" event that the checks
// read; ts and dur are microseconds from the trace epoch.
type event struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func main() {
	var (
		in        = flag.String("in", "", "Chrome-trace JSON file to validate")
		eventsIn  = flag.String("events", "", "caslock-attack -events-out NDJSON file to validate (usable alone or together with -in)")
		require   = flag.String("require", "attack,enumerate,decode,algo1,algo2,verify", "comma-separated span names that must appear")
		extra     = flag.String("coverage-extra", "calibrate", "comma-separated span names that count toward attack coverage when present but are not required (conditional phases like calibrate, which builds the DIP-set extractor on unpinned runs)")
		tolerance = flag.Float64("tolerance", 0.05, "allowed uncovered fraction of each attack span")
		slack     = flag.Duration("slack", 25*time.Millisecond, "absolute floor of the coverage allowance (dominates on fast attacks)")
	)
	flag.Parse()
	if (*in == "" && *eventsIn == "") || *tolerance < 0 || *tolerance >= 1 || *slack < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *eventsIn != "" {
		checkEvents(*eventsIn)
	}
	if *in == "" {
		return
	}
	data, err := os.ReadFile(*in)
	failIf(err)
	var events []event
	failIf(json.Unmarshal(data, &events))
	if len(events) == 0 {
		fail(fmt.Errorf("%s: trace is empty", *in))
	}

	required := strings.Split(*require, ",")
	seen := make(map[string]int)
	for _, ev := range events {
		seen[ev.Name]++
	}
	var missing []string
	for _, name := range required {
		name = strings.TrimSpace(name)
		if name != "" && seen[name] == 0 {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		fail(fmt.Errorf("%s: missing required spans: %s", *in, strings.Join(missing, ", ")))
	}

	// Coverage: only meaningful when the root "attack" span is among the
	// required names; the remaining required names are its phases.
	// Coverage-extra names join the phase set without being required —
	// they only run on some configurations (e.g. "calibrate", which
	// builds and self-checks the DIP-set extractor, appears only when
	// SATWidthLimit leaves the SAT/sim rule unpinned), but when present
	// their time is attack time and must count.
	phases := make(map[string]bool)
	var wantAttack bool
	requiredPhases := 0
	for _, name := range required {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "attack":
			wantAttack = true
		default:
			phases[name] = true
			requiredPhases++
		}
	}
	for _, name := range strings.Split(*extra, ",") {
		if name = strings.TrimSpace(name); name != "" && name != "attack" {
			phases[name] = true
		}
	}
	minCoverage := 1.0
	// Coverage is enforced only when the caller required at least one
	// phase alongside "attack": extras widen the covering set but must
	// never switch the check on by themselves — `-require attack` alone
	// (the interrupted-run smoke) would otherwise demand that the
	// conditional calibrate span cover the whole attack.
	if wantAttack && requiredPhases > 0 {
		for _, root := range events {
			if root.Name != "attack" || root.Ph != "X" || root.Dur <= 0 {
				continue
			}
			var covered float64
			end := root.Ts + root.Dur
			for _, ev := range events {
				if phases[ev.Name] && ev.Ts >= root.Ts && ev.Ts+ev.Dur <= end+1 {
					covered += ev.Dur
				}
			}
			allowance := *tolerance * root.Dur
			if s := float64(*slack) / float64(time.Microsecond); s > allowance {
				allowance = s
			}
			if covered < root.Dur-allowance {
				fail(fmt.Errorf("%s: attack span at ts=%.0fµs lasts %.0fµs but its phases cover only %.0fµs (allowance %.0fµs)",
					*in, root.Ts, root.Dur, covered, allowance))
			}
			if c := covered / root.Dur; c < minCoverage {
				minCoverage = c
			}
		}
	}

	fmt.Printf("tracecheck: OK — %d events, %d required spans present, phase coverage ≥ %.1f%%\n",
		len(events), len(required), minCoverage*100)
}

// busEvent mirrors the fields of one internal/events NDJSON line that
// the checks read.
type busEvent struct {
	Seq      uint64            `json:"seq"`
	TS       int64             `json:"ts_ms"`
	Type     string            `json:"type"`
	Phase    string            `json:"phase"`
	Count    uint64            `json:"count"`
	Fraction float64           `json:"fraction"`
	Fields   map[string]string `json:"fields"`
}

// checkEvents validates an -events-out NDJSON stream's structural
// invariants: parseable lines, strictly increasing seq, properly nested
// phase enters and exits, every dip_progress labelled with the
// innermost open phase, monotone DIP counts within each enumeration
// round (a hypothesis restart starts a fresh round with a fresh set, so
// the baseline resets when the event's round field changes), and a
// terminal done event.
func checkEvents(path string) {
	data, err := os.ReadFile(path)
	failIf(err)
	var (
		evs      []busEvent
		lastSeq  uint64
		lastDIPs uint64
		dipRound string
		open     []string // phases entered and not yet exited, innermost last
	)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var ev busEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			fail(fmt.Errorf("%s:%d: bad event line: %v", path, i+1, err))
		}
		if ev.Type == "" || ev.Seq == 0 || ev.TS == 0 {
			fail(fmt.Errorf("%s:%d: event missing type/seq/ts_ms: %s", path, i+1, line))
		}
		if ev.Seq <= lastSeq {
			fail(fmt.Errorf("%s:%d: seq %d does not increase past %d", path, i+1, ev.Seq, lastSeq))
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "phase_enter":
			open = append(open, ev.Phase)
		case "phase_exit":
			if len(open) == 0 || open[len(open)-1] != ev.Phase {
				fail(fmt.Errorf("%s:%d: phase %q exits but the innermost open phase is %q", path, i+1, ev.Phase, innermost(open)))
			}
			open = open[:len(open)-1]
		case "dip_progress":
			if in := innermost(open); ev.Phase != in {
				fail(fmt.Errorf("%s:%d: dip_progress labelled %q inside phase %q", path, i+1, ev.Phase, in))
			}
			if round := ev.Fields["round"]; round != dipRound {
				dipRound, lastDIPs = round, 0
			}
			if ev.Count > 0 {
				if ev.Count < lastDIPs {
					fail(fmt.Errorf("%s:%d: DIP count regressed %d → %d within round %q", path, i+1, lastDIPs, ev.Count, dipRound))
				}
				lastDIPs = ev.Count
			}
		}
		evs = append(evs, ev)
	}
	if len(evs) == 0 {
		fail(fmt.Errorf("%s: event stream is empty", path))
	}
	last := evs[len(evs)-1]
	if last.Type != "done" {
		fail(fmt.Errorf("%s: stream ends with %q, want a terminal done event", path, last.Type))
	}
	if last.Fraction != 1 {
		fail(fmt.Errorf("%s: done event fraction %v, want 1", path, last.Fraction))
	}
	fmt.Printf("tracecheck: OK — %d events, seq monotone, phases nested, DIP progress labelled, terminal done\n", len(evs))
}

// innermost returns the last entry of the open-phase stack, "" if none.
func innermost(open []string) string {
	if len(open) == 0 {
		return ""
	}
	return open[len(open)-1]
}

func failIf(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
)

// aaWorkloads is the order the A/A table lists workloads in.
var aaWorkloads = []string{"live_pingpong", "live_bulk", "live_fanin_lossy", "sim_paper"}

// aaMetrics are the end-to-end metrics with the direction that is better
// (+1 higher, −1 lower) and the bound BENCHMARK.json declares for each.
var aaMetrics = []struct {
	name   string
	better float64
	bound  float64
}{
	{"msgs_per_s", +1, 0.10},
	{"oneway_p50_us", -1, 0.10},
	{"cpu_us_per_msg", -1, 0.10},
	{"setup_s", -1, 0.10},
}

// runAA runs this same binary 2·n times per workload, as two sets A and B
// whose runs alternate (A1 B1 A2 B2 …, every run with its own seed), and
// prints for each workload × metric both medians, how much worse B's median
// is than A's, and each set's quartile spread. Identical code must agree
// with itself within the declared bound before the bound means anything.
// Beside them goes the spread of the same metric as the clock read it, and
// under the table how far the host's speed moved meanwhile: what the
// host-speed reference had to take out.
func runAA(n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] lists one value per run; raw[workload]
	// lists the unnormalised metrics and the host's slowness by name.
	values := map[string]map[string]*[2][]float64{}
	raw := map[string]map[string][]float64{}
	for _, w := range aaWorkloads {
		values[w] = map[string]*[2][]float64{}
		raw[w] = map[string][]float64{}
		for _, m := range aaMetrics {
			values[w][m.name] = &[2][]float64{}
		}
	}
	seed := 0
	for rep := 0; rep < n; rep++ {
		for set := 0; set < 2; set++ {
			seed++
			for _, w := range aaWorkloads {
				res, notes, err := runSelf(self, w, seed, seconds)
				for name, v := range notes {
					raw[w][name] = append(raw[w][name], v)
				}
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, res.Failed, res.Attempted)
				}
				for _, m := range aaMetrics {
					v, ok := res.Metrics[m.name]
					if !ok {
						return fmt.Errorf("%s seed %d: no metric %s", w, seed, m.name)
					}
					values[w][m.name][set] = append(values[w][m.name][set], v.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c run %d seed %d:", w, 'A'+set, rep+1, seed)
				for _, m := range aaMetrics {
					fmt.Fprintf(os.Stderr, " %s=%s", m.name, sig(res.Metrics[m.name].Value))
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	fmt.Printf("A/A: two alternating sets of %d runs per workload, -seconds %d, same binary\n\n", n, seconds)
	fmt.Println("| workload | metric | median A | median B | B worse than A | spread A | spread B | spread of all | same, as the clock read it | within bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range aaWorkloads {
		for _, m := range aaMetrics {
			a, b := values[w][m.name][0], values[w][m.name][1]
			medA, medB := median(a), median(b)
			worse := m.better * (medA - medB) / medA // positive when B is worse
			all := append(append([]float64(nil), a...), b...)
			verdict := "yes"
			if worse > m.bound || -worse > m.bound {
				verdict = "NO"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %s | %+.2f %% | %.2f %% | %.2f %% | %.2f %% | %.2f %% | %s |\n",
				w, m.name, sig(medA), sig(medB), 100*worse,
				100*quartileSpread(a), 100*quartileSpread(b), 100*quartileSpread(all),
				100*quartileSpread(raw[w]["raw."+m.name]), verdict)
		}
	}
	fmt.Println()
	for _, w := range aaWorkloads {
		slow := sorted(raw[w]["host.slowness"])
		fmt.Printf("Host slowness during the %d runs of %s: %.2f to %.2f, quartile spread %.1f %%.\n",
			len(slow), w, percentile(slow, 0), percentile(slow, 100), 100*quartileSpread(slow))
	}
	if failed > 0 {
		return fmt.Errorf("%d cells differ by more than their bound", failed)
	}
	return nil
}

// sig prints a value with six significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// noteLine matches a numeric side fact a run prints to standard error.
var noteLine = regexp.MustCompile(`(?m)^benchmark:   ((?:raw|host)\.\S+) = (\S+)$`)

// runSelf runs one untraced workload in a child process and parses the
// result line it prints last, and from its standard error the unnormalised
// metrics and the host's slowness.
func runSelf(self, workload string, seed, seconds int) (result, map[string]float64, error) {
	var res result
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return res, nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	notes := map[string]float64{}
	for _, m := range noteLine.FindAllSubmatch(errOut.Bytes(), -1) {
		if v, err := strconv.ParseFloat(string(m[2]), 64); err == nil {
			notes[string(m[1])] = v
		}
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	return res, notes, nil
}

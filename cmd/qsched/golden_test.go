package main

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"
)

var poolRE = regexp.MustCompile(`pool=(\d+)/(\d+)`)

// TestGoldenRejections pins qsched's verbose stdout on a seeded stream that
// saturates a small network, so the rejection reason strings are part of
// it. The search-context pool's hit/miss split is not pinned, only its
// checkout total: whether a checkout hits depends on how long the pool
// lives and on goroutine scheduling, not on the routing.
func TestGoldenRejections(t *testing.T) {
	out, err := capture(t, "-users", "6", "-switches", "8", "-qubits", "2",
		"-sessions", "30", "-hold", "20", "-seed", "3", "-v")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	got := poolRE.ReplaceAllStringFunc(out, func(m string) string {
		sub := poolRE.FindStringSubmatch(m)
		hits, _ := strconv.Atoi(sub[1])
		misses, _ := strconv.Atoi(sub[2])
		return fmt.Sprintf("pool=%d", hits+misses)
	})
	const want = `graph(14 nodes: 6 users, 8 switches; 42 edges)
  t=    0.22 session   0 (3 users): accepted, rate 4.5441e-01
  t=    6.04 session   1 (4 users): accepted, rate 2.4181e-01
  t=    7.25 session   2 (4 users): accepted, rate 1.7973e-01
  t=    8.63 session   3 (2 users): accepted, rate 5.1402e-01
  t=   10.01 session   4 (2 users): accepted, rate 5.1703e-01
  t=   11.36 session   5 (2 users): accepted, rate 5.0998e-01
  t=   14.63 session   6 (2 users): accepted, rate 4.2630e-01
  t=   17.66 session   7 (3 users): accepted, rate 2.5579e-01
  t=   18.73 session   8 (3 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   20.51 session   9 (2 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   20.91 session  10 (2 users): accepted, rate 4.8347e-01
  t=   22.92 session  11 (4 users): accepted, rate 2.5814e-01
  t=   23.43 session  12 (4 users): accepted, rate 2.0655e-01
  t=   23.61 session  13 (4 users): accepted, rate 2.8571e-01
  t=   23.87 session  14 (4 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   24.03 session  15 (4 users): accepted, rate 3.2231e-01
  t=   24.86 session  16 (2 users): accepted, rate 6.4085e-01
  t=   25.05 session  17 (2 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   25.67 session  18 (4 users): accepted, rate 3.4091e-01
  t=   26.14 session  19 (4 users): accepted, rate 3.2231e-01
  t=   26.26 session  20 (3 users): accepted, rate 4.4008e-01
  t=   26.79 session  21 (4 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   30.59 session  22 (2 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   30.65 session  23 (3 users): REJECTED (core: no feasible entanglement tree exists: 2 users unreachable under shared capacity)
  t=   31.40 session  24 (3 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   31.74 session  25 (4 users): REJECTED (core: no feasible entanglement tree exists: 3 users unreachable under shared capacity)
  t=   32.49 session  26 (2 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   33.42 session  27 (4 users): REJECTED (core: no feasible entanglement tree exists: 1 users unreachable under shared capacity)
  t=   35.22 session  28 (4 users): REJECTED (core: no feasible entanglement tree exists: 3 users unreachable under shared capacity)
  t=   36.79 session  29 (4 users): accepted, rate 2.5814e-01
sessions:          30
accepted:          18
rejected:          12
acceptance ratio:  0.600
mean session rate: 3.6986e-01
peak qubits held:  12
solve work:        dijkstra=89 relaxed=806 pool=89 channels=82/47 reservations=47 cache=47/1 saved=9
`
	if got != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
	}
}

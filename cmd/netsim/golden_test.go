package main

import (
	"fmt"
	"regexp"
	"strconv"
	"testing"
)

var (
	elapsedRE = regexp.MustCompile(`(?m)^(rounds executed:  \d+) in .*$`)
	poolRE    = regexp.MustCompile(`pool=(\d+)/(\d+)`)
)

// normalize cuts what varies from run to run out of netsim's stdout: the
// elapsed wall time, and the search-context pool's hit/miss split (a
// sync.Pool checkout misses when the goroutine changed Ps or a GC emptied
// the pool), of which only the checkout total is kept.
func normalize(out string) string {
	out = elapsedRE.ReplaceAllString(out, "$1")
	return poolRE.ReplaceAllStringFunc(out, func(m string) string {
		sub := poolRE.FindStringSubmatch(m)
		hits, _ := strconv.Atoi(sub[1])
		misses, _ := strconv.Atoi(sub[2])
		return fmt.Sprintf("pool=%d", hits+misses)
	})
}

// TestGoldenOutput pins netsim's stdout for a seeded Algorithm 4 run with
// -stats, whose starting user is drawn from the stream seeded by -seed, and
// for a default Algorithm 3 run.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "alg4", "-seed", "7", "-stats"}, `graph(26 nodes: 6 users, 20 switches; 78 edges)
algorithm:        alg4
channels routed:  5
rounds executed:  10000
tree successes:   537
empirical rate:   5.370000e-02
analytic rate:    5.601654e-02
links attempted:  70000
swaps attempted:  10617
solve work:       dijkstra=9 relaxed=301 pool=9 channels=25/5 reservations=5 cache=5/0 saved=6
  channel 0 (2 links): 4644/10000 rounds (analytic 0.4652)
  channel 1 (1 links): 7021/10000 rounds (analytic 0.7001)
  channel 2 (1 links): 5972/10000 rounds (analytic 0.6048)
  channel 3 (1 links): 5666/10000 rounds (analytic 0.5738)
  channel 4 (2 links): 4913/10000 rounds (analytic 0.4956)
`},
		{[]string{"-alg", "alg3"}, `graph(26 nodes: 6 users, 20 switches; 78 edges)
algorithm:        alg3
channels routed:  5
rounds executed:  10000
tree successes:   1706
empirical rate:   1.706000e-01
analytic rate:    1.638643e-01
links attempted:  80000
swaps attempted:  19942
  channel 0 (1 links): 9241/10000 rounds (analytic 0.9264)
  channel 1 (1 links): 8888/10000 rounds (analytic 0.8854)
  channel 2 (2 links): 7670/10000 rounds (analytic 0.7660)
  channel 3 (2 links): 5627/10000 rounds (analytic 0.5604)
  channel 4 (2 links): 4665/10000 rounds (analytic 0.4654)
`},
	} {
		out, err := capture(t, tc.args...)
		if err != nil {
			t.Fatalf("run %v: %v\n%s", tc.args, err, out)
		}
		if got := normalize(out); got != tc.want {
			t.Errorf("run %v:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

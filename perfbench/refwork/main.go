// Command refwork is the benchmark's reference workload: a fixed amount of
// allocation-heavy work (tree inserts, map updates, sorting, integer
// arithmetic) on one goroutine, close in kind to what the analyzer does at
// one worker. It imports nothing from the repository, so its cost changes
// only with the speed of the host, never with the program under test.
// perfbench runs it next to every measured sample and reports the
// program's time as a multiple of it, which cancels the host's slow speed
// swings.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
)

type node struct {
	l, r *node
	k    int64
	v    []int64
}

func insert(n *node, k int64) *node {
	if n == nil {
		return &node{k: k, v: make([]int64, 1+k%5)}
	}
	if k < n.k {
		n.l = insert(n.l, k)
	} else {
		n.r = insert(n.r, k)
	}
	return n
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// work does the fixed work.
func work(seed int64) int64 {
	rng := rand.New(rand.NewSource(seed))
	var sum int64
	for round := 0; round < 3; round++ {
		var root *node
		m := map[int64]int64{}
		xs := make([]int64, 0, 40000)
		for i := 0; i < 40000; i++ {
			k := rng.Int63n(1 << 40)
			root = insert(root, k)
			m[k%100003] += k
			xs = append(xs, k)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for i := 1; i < len(xs); i++ {
			sum += gcd(xs[i], xs[i-1]) + m[xs[i]%100003]&7
		}
	}
	return sum
}

func main() {
	fmt.Fprintln(os.Stdout, work(1))
}

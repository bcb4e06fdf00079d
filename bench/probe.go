package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/parser"
	"go/printer"
	"go/token"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A shared machine's speed drifts as neighbours come and go: on the
// 2-CPU virtual machine the baseline was recorded on, a fixed loop's
// rate moved by up to 3.6× within a 20-second run and its median by up
// to a third between runs, and job times moved with it. So before and
// after each set-up and each slice of the measured window, while the
// daemon is idle, the benchmark runs a fixed loop of its own for
// probeDuration, and multiplies every time measured in between by the
// mean of the two rates over referenceRate. The scaled times read as if
// the machine ran the loop at referenceRate. The raw times are reported
// beside them. The probe is benchmark code, so a change to the program
// under test never moves it.
const (
	probeDuration = 150 * time.Millisecond
	// referenceRate, in rounds per second on all of GOMAXPROCS, only
	// fixes the unit of the scaled times: about the rate of the 2-CPU
	// machine the baseline was recorded on, when quiet. Another value
	// scales every time by the same factor, so spreads, and the ratio
	// between two commits measured on one machine, do not depend on it.
	referenceRate = 600
	// slices is how many pieces a measured window is cut into, with a
	// probe before the first and after each.
	slices = 16
)

// probeSource is a fixed Go file for the probe to parse and print:
// parsing and printing exercise the same kind of code (large, allocation
// heavy, pointer chasing) as the daemon's jobs.
var probeSource = func() []byte {
	var b strings.Builder
	b.WriteString("package probe\n\nimport \"errors\"\n\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, `// Fetch%d calls every key until limit attempts have run.
func (c *Client) Fetch%d(keys []string, limit int) (map[string]int, error) {
	out := make(map[string]int, len(keys))
	for attempt := 0; attempt < limit; attempt++ {
		for j, k := range keys {
			if len(k) > %d && j%%2 == 0 {
				out[k] += j * attempt
				continue
			}
			if err := c.call(k); err != nil {
				return nil, errors.New("fetch %d: " + err.Error())
			}
		}
	}
	return out, nil
}

`, i, i, i%7, i)
	}
	return []byte(b.String())
}()

// probeRound is one unit of probe work: parse and print a Go file, then
// hash, fill a map and sort.
func probeRound(buf []byte, xs []int) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "probe.go", probeSource, parser.ParseComments)
	if err != nil {
		panic(err) // probeSource is a constant, valid Go file
	}
	var out bytes.Buffer
	if err := printer.Fprint(&out, fset, f); err != nil {
		panic(err)
	}
	m := make(map[string]int, 64)
	for r := 0; r < 10; r++ {
		sum := sha256.Sum256(buf)
		buf[0] = sum[0]
		for i := 0; i < 64; i++ {
			m[strconv.Itoa(i*int(sum[1]))]++
		}
		for i := range xs {
			xs[i] = (i * 7919) % 1021
		}
		sort.Ints(xs)
	}
}

// probeRate runs the probe on GOMAXPROCS goroutines and returns its
// rate in rounds per second.
func probeRate() float64 {
	var rounds atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, xs := make([]byte, 4096), make([]int, 256)
			for time.Since(start) < probeDuration {
				probeRound(buf, xs)
				rounds.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(rounds.Load()) / time.Since(start).Seconds()
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"shiftedmirror/internal/obs"
)

// dist summarises repeated measurements of one quantity: the median is
// what a metric reports, the quartiles and count are printed beside it.
type dist struct {
	median, q1, q3 float64
	n              int
}

func summarize(vals []float64) dist {
	if len(vals) == 0 {
		return dist{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return dist{median: quantile(s, 0.5), q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s)}
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyMs returns the nearest-rank q-quantile of lats in milliseconds
// (sorting lats in place).
func latencyMs(lats []time.Duration, q float64) float64 {
	return ms(obs.NearestRankDur(obs.SortDurations(lats), q))
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel is the first "model name" of /proc/cpuinfo, for the header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// fillRef writes the seeded reference image.
func fillRef(buf []byte, seed int64) {
	rand.New(rand.NewSource(seed)).Read(buf) // never fails
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics in report order, and notes on their
// bases (sample counts) for the human-readable report.
type metricSet struct {
	names  []string
	values map[string]metric
	notes  []string
}

func (m *metricSet) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

func (m *metricSet) set(name string, value float64, unit string) {
	if m.values == nil {
		m.values = map[string]metric{}
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond returns how many of n samples lie above the q-quantile — the
// base a tail percentile rests on.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(q*float64(n-1))
}

// noteLatency records a latency metric's sample count and whether its
// p95 has the ten samples beyond it that a claim on it needs.
func (m *metricSet) noteLatency(what string, n int) {
	k := beyond(n, 0.95)
	usable := "usable"
	if k < 10 {
		usable = "not usable for claims (needs >= 10)"
	}
	m.note("%s: %d samples, %d beyond p95: p95 %s", what, n, k, usable)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// vmHWMMiB reads a process's peak resident set size (VmHWM) in MiB from
// /proc; pid 0 reads the calling process.
func vmHWMMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

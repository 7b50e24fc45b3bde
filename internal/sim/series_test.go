package sim

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"github.com/tieredmem/mtat/internal/policy"
	"github.com/tieredmem/mtat/internal/stats"
)

// cloneSeries copies s into fresh backing arrays.
func cloneSeries(s *stats.Series) *stats.Series {
	return &stats.Series{Name: s.Name, Times: slices.Clone(s.Times), Values: slices.Clone(s.Values)}
}

// deepCopy returns res with every series in its own backing arrays, as
// RunContext built them before the series shared one time axis.
func deepCopy(res *Result) *Result {
	cp := *res
	cp.Time = cloneSeries(res.Time)
	cp.LCP99 = cloneSeries(res.LCP99)
	cp.LCLoadKRPS = cloneSeries(res.LCLoadKRPS)
	cp.LCFMemRatio = cloneSeries(res.LCFMemRatio)
	cp.BEFMem = stats.NewSeriesSet()
	for _, s := range res.BEFMem.Series() {
		c := cp.BEFMem.Get(s.Name)
		c.Times, c.Values = slices.Clone(s.Times), slices.Clone(s.Values)
	}
	return &cp
}

// encodeResult is the Result's JSON encoding plus its BE series, which
// the SeriesSet's unexported fields hide from encoding/json.
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Result *Result
		BEFMem []*stats.Series
	}{res, res.BEFMem.Series()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResultSharesOneTimeAxis checks that every series of a finished
// Result uses one Times backing array with len == cap == ticks, and that
// sharing it changes nothing a reader sees: the JSON encoding equals that
// of a deep copy with separate slices.
func TestResultSharesOneTimeAxis(t *testing.T) {
	lc := testScenario(t, 3)
	lc.DurationSeconds = 30
	beOnly, err := PaperScenario(PaperScenarioOpts{
		BENames: []string{"sssp", "xsbench"},
		Scale:   16,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	beOnly.DurationSeconds = 30
	for _, tc := range []struct {
		name string
		scn  Scenario
	}{{"lc", lc}, {"be-only", beOnly}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunScenario(tc.scn, policy.NewTPP())
			if err != nil {
				t.Fatal(err)
			}
			series := res.BEFMem.Series()
			if tc.scn.HasLC {
				series = append(series, res.Time, res.LCP99, res.LCLoadKRPS, res.LCFMemRatio)
				if &res.Time.Values[0] != &res.Time.Times[0] {
					t.Error("Time.Values is not the shared time axis")
				}
			} else {
				for _, s := range []*stats.Series{res.Time, res.LCP99, res.LCLoadKRPS, res.LCFMemRatio} {
					if s.Times != nil || s.Values != nil {
						t.Errorf("series %s recorded without an LC workload", s.Name)
					}
				}
			}
			axis := series[0].Times
			for _, s := range series {
				if len(s.Times) != res.Ticks || cap(s.Times) != res.Ticks || len(s.Values) != res.Ticks {
					t.Errorf("series %s: len(Times)=%d cap(Times)=%d len(Values)=%d, want %d",
						s.Name, len(s.Times), cap(s.Times), len(s.Values), res.Ticks)
					continue
				}
				if &s.Times[0] != &axis[0] {
					t.Errorf("series %s has its own Times backing array", s.Name)
				}
			}
			if got, want := encodeResult(t, res), encodeResult(t, deepCopy(res)); !bytes.Equal(got, want) {
				t.Errorf("JSON of the shared-axis Result differs from a deep copy's:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestDuplicateBENamesShareASeries checks the one case where a series
// holds more than one value per tick: BEs with the same name append to
// the same series, each value stamped with its tick's time.
func TestDuplicateBENamesShareASeries(t *testing.T) {
	scn, err := PaperScenario(PaperScenarioOpts{
		BENames: []string{"sssp", "sssp"},
		Scale:   16,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	scn.DurationSeconds = 5
	res, err := RunScenario(scn, policy.NewMEMTIS())
	if err != nil {
		t.Fatal(err)
	}
	series := res.BEFMem.Series()
	if len(series) != 1 {
		t.Fatalf("%d BE series, want 1", len(series))
	}
	s := series[0]
	if len(s.Times) != 2*res.Ticks || len(s.Values) != 2*res.Ticks {
		t.Fatalf("len(Times)=%d len(Values)=%d, want %d", len(s.Times), len(s.Values), 2*res.Ticks)
	}
	for i, tt := range s.Times {
		if want := float64(i/2) * res.Scenario.TickSeconds; tt != want {
			t.Fatalf("Times[%d] = %g, want %g", i, tt, want)
		}
	}
}

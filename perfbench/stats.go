package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0,100]) and how many samples lie strictly beyond its rank. xs need
// not be sorted; it is not modified. An empty input returns (0, 0).
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio is a share reported with its base: Num out of Den.
type ratio struct {
	Num, Den int
}

// Value is Num/Den, or 0 for an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d/%d)", r.Value(), r.Num, r.Den)
}

// failedFrac is failed_frac: ops that errored, were refused, or failed
// the output check, over every op attempted (refused ops included).
func failedFrac(failed, attempted int) ratio {
	return ratio{Num: failed, Den: attempted}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether a metric or workload name is made of at
// most 64 letters, digits, '_', '.' and '-', starting with a letter or
// digit.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether a unit is made of at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool { return unitRE.MatchString(s) }

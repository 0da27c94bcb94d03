// Package maporder is the maporder fixture: map iteration with
// order-dependent effects must sort, one way or the other.
package maporder

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// badAppend collects map keys without sorting: the plan order changes run to
// run.
func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map m`
	}
	return keys
}

// goodAppendThenSort is the blessed pattern: append, then sort before use.
func goodAppendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodSortedKeysRange ranges over a sorted slice, not the map: fine.
func goodSortedKeysRange(m map[string]int) []int {
	keys := goodAppendThenSort(m)
	var vals []int
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return vals
}

// badPrint emits output in iteration order.
func badPrint(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt\.Fprintf inside range over map m`
	}
}

// badBuilder writes to a strings.Builder in iteration order.
func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `b\.WriteString inside range over map m`
	}
	return b.String()
}

// goodLoopLocal appends to state declared inside the loop body: each
// iteration's slice is independent, so order cannot leak.
func goodLoopLocal(m map[string][]int, out map[string]int) {
	for k, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v*2)
		}
		out[k] = len(local)
	}
}

// goodMapToMap builds another map: no ordered sink.
func goodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// goodAggregate folds into a scalar: order-independent.
func goodAggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// badFloatSum folds float values in iteration order: the total's last bits
// change run to run.
func badFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point \+= to total inside range over map m`
	}
	return total
}

// duration is a named float type, like vclock.Duration.
type duration float64

// badFloatIntoMap folds into an outer map element keyed by a derived group.
func badFloatIntoMap(m map[string]duration, group func(string) int) map[int]duration {
	sums := map[int]duration{}
	for k, d := range m {
		sums[group(k)] += d // want `floating-point \+= to sums\[group\(k\)\] inside range over map m`
	}
	return sums
}

// badFloatOps covers the other compound operators and a struct field.
func badFloatOps(m map[string]float64) (float64, float64) {
	var acc struct{ prod, rest float64 }
	acc.prod, acc.rest = 1, 100
	for _, v := range m {
		acc.prod *= v // want `floating-point \*= to acc\.prod inside range over map m`
		acc.rest -= v // want `floating-point -= to acc\.rest inside range over map m`
		acc.rest /= 2 // want `floating-point /= to acc\.rest inside range over map m`
	}
	return acc.prod, acc.rest
}

// goodSortedFloatSum folds in sorted key order: fine.
func goodSortedFloatSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// goodLoopLocalFloat folds into a float declared inside the loop body: each
// iteration's sum is independent of the others.
func goodLoopLocalFloat(m map[string][]float64, out map[string]float64) {
	for k, vs := range m {
		var s float64
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
}

// goodMapElementOwnKey updates each key's own element: no fold across
// iterations.
func goodMapElementOwnKey(m map[string]float64, total float64) {
	for k := range m {
		m[k] /= total
	}
}

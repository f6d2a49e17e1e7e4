package scenario

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestHostileParams probes every declared params key of every substrate
// with a negative, a fractional and a huge value. Each probe must either
// fail Validate with an error naming the key, or run one replicate without
// a panic (the simulator may still refuse it with an error). Before every
// integer key was bounded, eight of these probes crashed the process:
// makeslice panics on a negative degree or a huge gossip lifetime, and the
// runtime running out of memory on a huge token, piece, symbol or payload
// count.
func TestHostileParams(t *testing.T) {
	for _, substrate := range Substrates {
		for _, key := range declared[substrate] {
			for _, v := range []float64{-3, 1.5, 1e12} {
				name := fmt.Sprintf("%s/%s=%g", substrate, key, v)
				spec, ok := Get("x/none-" + substrate)
				if !ok {
					t.Fatalf("no scenario x/none-%s", substrate)
				}
				for _, set := range [][2]string{{"params." + key, fmt.Sprint(v)}, {"replicates", "1"}, {"sweep.points", "2"}} {
					if err := spec.Set(set[0], set[1]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if err := spec.Validate(); err != nil {
					if !strings.Contains(err.Error(), "params."+key) {
						t.Errorf("%s: rejected with an error that does not name params.%s: %v", name, key, err)
					}
					continue
				}
				if _, err := Run(spec, 1, RunOptions{Workers: 1}); err != nil {
					t.Logf("%s: passes Validate, refused at build: %v", name, err)
				}
			}
		}
	}
}

// TestKnobsCoverEveryKey keeps the knob table complete: every declared key
// has a bound, and every key a substrate truncates to an int is an integer
// knob, so a fractional value is refused rather than silently rounded down.
func TestKnobsCoverEveryKey(t *testing.T) {
	fractional := []string{"altruism", "altruists", "cost", "mint", "obedient", "specialReq"}
	for _, substrate := range Substrates {
		for _, key := range declared[substrate] {
			k := slices.IndexFunc(knobs, func(k knob) bool { return k.key == key })
			switch {
			case k < 0:
				t.Errorf("%s: params.%s has no knob", substrate, key)
			case knobs[k].integer == slices.Contains(fractional, key):
				t.Errorf("%s: params.%s has integer=%v", substrate, key, knobs[k].integer)
			}
		}
	}
}

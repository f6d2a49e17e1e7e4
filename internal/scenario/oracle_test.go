package scenario

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSetMatchesOracle: Set and applyAxis reach spec fields through one
// key→field table, and behave exactly as the per-key switches they
// replaced, kept below verbatim as oracleSet and oracleApplyAxis. Over every
// registry spec × key × value, and every spec × axis × x, both return the
// same error text, leave deep-equal specs after a success, and leave the
// spec untouched after an error. The one intended difference: a sweep of an
// integer params knob truncates x toward zero, where the oracle stored x
// as given (and the point then failed validation).
func TestSetMatchesOracle(t *testing.T) {
	keys := append(slices.Sorted(maps.Keys(fields)), "params.push", "params.", "name", "warp.speed", "",
		"population.classes", "population.churn.trace", "population.popularity.weights")
	if len(fields) != 33 {
		t.Fatalf("the fields table has %d keys, want the 33 Set has always accepted", len(fields))
	}
	values := []string{"", "0", "1", "-3", "1.5", "1e3", "NaN", "inf", "-Inf", "true", "maybe",
		"0,1,2", ",,", "x", "2147483647", "99999999999999999999"}
	axes := []string{"adversary.fraction", "adversary.satiateFraction", "adversary.rotatePeriod",
		"adversary.targets", "defense.rateLimit", "nodes", "rounds", "population.churn.leaveRate",
		"population.churn.joinRate", "population.popularity.exponent", "params.push", "params.altruism",
		"params.tokens", "params.", "title", "sweep.points", "replicates", "warp.speed"}
	xs := []float64{-3, 0, 0.5, 1, 1.5, 7, 1e3, 1e12}
	check := func(what string, base, got, want *Spec, gotErr, wantErr error) {
		t.Helper()
		switch {
		case fmt.Sprint(gotErr) != fmt.Sprint(wantErr):
			t.Errorf("%s: error %v, want %v", what, gotErr, wantErr)
		case gotErr != nil && !reflect.DeepEqual(got, base):
			t.Errorf("%s: rejected, but changed the spec:\n%+v\nwant\n%+v", what, got, base)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s: spec\n%+v\nwant\n%+v", what, got, want)
		}
	}
	for _, name := range Names() {
		base, _ := Get(name)
		for _, key := range keys {
			for _, value := range values {
				got, want := base.Clone(), base.Clone()
				check(fmt.Sprintf("%s Set(%q, %q)", name, key, value), base, got, want,
					got.Set(key, value), want.oracleSet(key, value))
			}
		}
		for _, ax := range axes {
			for _, x := range xs {
				got, want := base.Clone(), base.Clone()
				got.Sweep.Axis, want.Sweep.Axis = ax, ax
				gotErr, wantErr := got.applyAxis(x), want.oracleApplyAxis(x)
				if k, ok := strings.CutPrefix(ax, "params."); ok && wantErr == nil && knobOf(k).integer {
					want.Params[k] = math.Trunc(x)
				}
				b := base.Clone()
				b.Sweep.Axis = ax
				check(fmt.Sprintf("%s applyAxis %s=%g", name, ax, x), b, got, want, gotErr, wantErr)
			}
		}
	}
}

// oracleApplyAxis is applyAxis as it was before the fields table.
func (s *Spec) oracleApplyAxis(x float64) error {
	axis := s.Sweep.Axis
	switch axis {
	case "adversary.fraction":
		s.Adversary.Fraction = x
	case "adversary.satiateFraction":
		s.Adversary.SatiateFraction = x
	case "adversary.rotatePeriod":
		s.Adversary.RotatePeriod = int(x)
	case "adversary.targets":
		// Satiate nodes 0..x-1: as an axis the target list grows from the
		// front, so sweeping it adds one targeted holder per step.
		if x < 0 || x > float64(s.population()) {
			return fmt.Errorf("scenario: adversary.targets axis value %g is outside [0,%d]", x, s.population())
		}
		s.Adversary.Targets = span(int(x))
	case "defense.rateLimit":
		s.Defense.RateLimit = int(x)
		if s.Defense.Kind == "" || s.Defense.Kind == "none" {
			s.Defense.Kind = "ratelimit"
		}
	case "nodes":
		s.Nodes = int(x)
	case "rounds":
		s.Rounds = int(x)
	case "population.churn.leaveRate":
		s.populationChurn().LeaveRate = x
	case "population.churn.joinRate":
		s.populationChurn().JoinRate = x
	case "population.popularity.exponent":
		s.populationPopularity().Exponent = x
		if s.populationPopularity().Kind == "" {
			s.populationPopularity().Kind = "zipf"
		}
	default:
		if key, ok := strings.CutPrefix(axis, "params."); ok && key != "" {
			s.setParam(key, x)
			return nil
		}
		return fmt.Errorf("scenario: unknown sweep axis %q", axis)
	}
	return nil
}

// oracleSet is Set as it was before the fields table.
func (s *Spec) oracleSet(key, value string) error {
	number := func() (float64, error) {
		v, err := strconv.ParseFloat(value, 64)
		if err != nil || !isFinite(v) {
			// ParseFloat accepts "inf" and "nan"; a spec holding one can
			// never re-encode to JSON, so reject them here too.
			return 0, fmt.Errorf("scenario: %s needs a finite number, got %q", key, value)
		}
		return v, nil
	}
	integer := func() (int, error) {
		v, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("scenario: %s needs an integer, got %q", key, value)
		}
		return v, nil
	}
	switch key {
	case "title":
		s.Title = value
	case "description":
		s.Description = value
	case "substrate":
		s.Substrate = value
	case "metric":
		s.Metric = value
	case "nodes":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Nodes = v
	case "rounds":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Rounds = v
	case "replicates":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Replicates = v
	case "adversary.kind":
		s.Adversary.Kind = value
	case "adversary.fraction":
		v, err := number()
		if err != nil {
			return err
		}
		s.Adversary.Fraction = v
	case "adversary.satiateFraction":
		v, err := number()
		if err != nil {
			return err
		}
		s.Adversary.SatiateFraction = v
	case "adversary.rotatePeriod":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Adversary.RotatePeriod = v
	case "adversary.start":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Adversary.Start = v
	case "adversary.stop":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Adversary.Stop = v
	case "adversary.rank":
		s.Adversary.Rank = value
	case "adversary.targets":
		if value == "" {
			s.Adversary.Targets = nil
			break
		}
		parts := strings.Split(value, ",")
		targets := make([]int, 0, len(parts))
		for _, p := range parts {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("scenario: %s needs comma-separated integers, got %q", key, value)
			}
			targets = append(targets, id)
		}
		s.Adversary.Targets = targets
	case "defense.kind":
		s.Defense.Kind = value
	case "defense.rateLimit":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Defense.RateLimit = v
	case "precision.halfWidth":
		v, err := number()
		if err != nil {
			return err
		}
		s.precision().HalfWidth = v
	case "precision.confidence":
		v, err := number()
		if err != nil {
			return err
		}
		s.precision().Confidence = v
	case "precision.relative":
		v, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("scenario: %s needs a boolean, got %q", key, value)
		}
		s.precision().Relative = v
	case "precision.minReps":
		v, err := integer()
		if err != nil {
			return err
		}
		s.precision().MinReps = v
	case "precision.maxReps":
		v, err := integer()
		if err != nil {
			return err
		}
		s.precision().MaxReps = v
	case "precision.batch":
		v, err := integer()
		if err != nil {
			return err
		}
		s.precision().Batch = v
	case "population.churn.leaveRate":
		v, err := number()
		if err != nil {
			return err
		}
		s.populationChurn().LeaveRate = v
	case "population.churn.joinRate":
		v, err := number()
		if err != nil {
			return err
		}
		s.populationChurn().JoinRate = v
	case "population.churn.start":
		v, err := integer()
		if err != nil {
			return err
		}
		s.populationChurn().Start = v
	case "population.popularity.kind":
		s.populationPopularity().Kind = value
	case "population.popularity.exponent":
		v, err := number()
		if err != nil {
			return err
		}
		s.populationPopularity().Exponent = v
	case "population.popularity.items":
		v, err := integer()
		if err != nil {
			return err
		}
		s.populationPopularity().Items = v
	case "sweep.axis":
		s.Sweep.Axis = value
	case "sweep.from":
		v, err := number()
		if err != nil {
			return err
		}
		s.Sweep.From = v
	case "sweep.to":
		v, err := number()
		if err != nil {
			return err
		}
		s.Sweep.To = v
	case "sweep.points":
		v, err := integer()
		if err != nil {
			return err
		}
		s.Sweep.Points = v
	default:
		if pkey, ok := strings.CutPrefix(key, "params."); ok && pkey != "" {
			v, err := number()
			if err != nil {
				return err
			}
			s.setParam(pkey, v)
			return nil
		}
		return fmt.Errorf("scenario: unknown override key %q (run `lotus-sim scenarios show <name>` for the spec layout)", key)
	}
	return nil
}

package defense_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/faultinject"
	"evax/internal/hpc"
	"evax/internal/safeio"
	"evax/internal/sim"
)

// bundleFile mirrors the bundle wire form so tests can corrupt one field at
// a time.
type bundleFile struct {
	Detector json.RawMessage `json:"detector"`
	Maxima   []float64       `json:"maxima"`
}

// syntheticBundle writes a structurally valid bundle without training: an
// untrained perceptron over the EVAX feature set plus unit maxima spanning
// the derived space. Validation tests only need shape, not accuracy.
func syntheticBundle(t *testing.T, path string) (*detect.Detector, *dataset.Dataset) {
	t.Helper()
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(3, fs)
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range maxima {
		maxima[i] = 1
	}
	ds := dataset.FromMaxima(maxima)
	if err := defense.SaveBundle(path, d, ds); err != nil {
		t.Fatal(err)
	}
	return d, ds
}

// corruptBundle rewrites path with a mutated copy of the bundle it holds.
func corruptBundle(t *testing.T, path string, mutate func(b *bundleFile)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b bundleFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	mutate(&b)
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := safeio.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBundleRejectsMalformedBundles: each way a bundle can be broken is
// rejected by DecodeBundle with its own distinct error before any flagger
// is built — a maxima-length mismatch in particular would otherwise panic
// inside the kernel on the first sampled window.
func TestLoadBundleRejectsMalformedBundles(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, b *bundleFile)
		want   string
	}{
		{
			name:   "maxima too short",
			mutate: func(t *testing.T, b *bundleFile) { b.Maxima = b.Maxima[:len(b.Maxima)-1] },
			want:   "maxima for a",
		},
		{
			name:   "maxima too long",
			mutate: func(t *testing.T, b *bundleFile) { b.Maxima = append(b.Maxima, 1) },
			want:   "maxima for a",
		},
		{
			name:   "negative maximum",
			mutate: func(t *testing.T, b *bundleFile) { b.Maxima[2] = -4 },
			want:   "is negative",
		},
		{
			name: "malformed detector patch",
			mutate: func(t *testing.T, b *bundleFile) {
				b.Detector = json.RawMessage(`{"layers":[]}`)
			},
			want: "holds no layers",
		},
		{
			name: "detector patch with hostile index",
			mutate: func(t *testing.T, b *bundleFile) {
				var sd map[string]any
				if err := json.Unmarshal(b.Detector, &sd); err != nil {
					t.Fatal(err)
				}
				sd["indices"].([]any)[0] = float64(1 << 30)
				out, err := json.Marshal(sd)
				if err != nil {
					t.Fatal(err)
				}
				b.Detector = out
			},
			want: "outside derived space",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bundle.json")
			syntheticBundle(t, path)
			corruptBundle(t, path, func(b *bundleFile) { tc.mutate(t, b) })
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = defense.DecodeBundle(data)
			if err == nil {
				t.Fatal("malformed bundle accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want message containing %q", err, tc.want)
			}
		})
	}
}

// isAlwaysOn reports whether fl is the AlwaysOn flagger (func identity).
func isAlwaysOn(fl defense.Flagger) bool {
	f, ok := fl.(defense.FlaggerFunc)
	return ok && reflect.ValueOf(f).Pointer() == reflect.ValueOf(defense.AlwaysOn).Pointer()
}

// TestLoadBundleOrSecureFallsBack: every failure mode — missing file,
// garbage bytes, malformed detector, broken maxima, a detector the kernel
// cannot compile — degrades the sanctioned loader
// (engine.LoadFlaggerOrSecure) to the always-secure flagger instead of
// refusing to run, and the cause is reported so operators see why
// performance recovery is off.
func TestLoadBundleOrSecureFallsBack(t *testing.T) {
	dir := t.TempDir()

	corruptions := map[string]func(path string){
		"missing file": func(path string) {},
		"garbage bytes": func(path string) {
			if err := safeio.WriteFile(path, []byte("{oops"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"malformed detector": func(path string) {
			syntheticBundle(t, path)
			corruptBundle(t, path, func(b *bundleFile) { b.Detector = json.RawMessage(`null`) })
		},
		"truncated maxima": func(path string) {
			syntheticBundle(t, path)
			corruptBundle(t, path, func(b *bundleFile) { b.Maxima = b.Maxima[:3] })
		},
		// Valid, but the kernel cannot compile it, so it cannot go live.
		"deep detector": func(path string) {
			_, ds := syntheticBundle(t, path)
			if err := defense.SaveBundle(path, detect.NewDeep(3, detect.EVAXBase(), 2, 8), ds); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
			corrupt(path)
			fl, err := engine.LoadFlaggerOrSecure(path)
			if err == nil {
				t.Fatal("broken bundle loaded without reporting a cause")
			}
			if !isAlwaysOn(fl) {
				t.Fatalf("fallback flagger is %T, want AlwaysOn", fl)
			}
		})
	}

	// A valid bundle loads normally: no error, a real detector flagger.
	path := filepath.Join(dir, "good.json")
	syntheticBundle(t, path)
	fl, err := engine.LoadFlaggerOrSecure(path)
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if _, ok := fl.(*defense.DetectorFlagger); !ok {
		t.Fatalf("valid bundle yielded %T, want *defense.DetectorFlagger", fl)
	}
}

// TestTornBundleUpdateKeepsOldBundle: a torn write during a bundle update
// (injected deterministically) fails the save but leaves the previous valid
// bundle on disk — the defense keeps running on the old detector rather
// than falling back at all.
func TestTornBundleUpdateKeepsOldBundle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	det, ds := syntheticBundle(t, path)

	restore := safeio.SetHook(faultinject.TornWriteHook(0))
	err := defense.SaveBundle(path, det, ds)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn save err = %v, want ErrTorn", err)
	}

	fl, err := engine.LoadFlaggerOrSecure(path)
	if err != nil {
		t.Fatalf("old bundle unreadable after torn update: %v", err)
	}
	if _, ok := fl.(*defense.DetectorFlagger); !ok {
		t.Fatalf("flagger is %T, want the previous *defense.DetectorFlagger", fl)
	}
}

// TestTornFirstSaveFallsBackSecure: when the very first bundle save tears
// (no previous bundle to keep), the adaptive controller comes up in
// always-secure mode and still mitigates every window of a live attack —
// graceful degradation end to end.
func TestTornFirstSaveFallsBackSecure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	det := detect.NewPerceptron(3, fs)
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	ds := dataset.FromMaxima(maxima)

	restore := safeio.SetHook(faultinject.TornWriteHook(0))
	err := defense.SaveBundle(path, det, ds)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn save err = %v, want ErrTorn", err)
	}

	fl, err := engine.LoadFlaggerOrSecure(path)
	if err == nil || !isAlwaysOn(fl) {
		t.Fatalf("want AlwaysOn fallback with cause, got %T, err %v", fl, err)
	}

	dcfg := defense.DefaultConfig(sim.PolicyInvisiSpecSpectre)
	dcfg.SampleInterval = 1000
	res := defense.RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 10), fl, dcfg, 1_000_000)
	if res.Windows == 0 {
		t.Fatal("no windows sampled")
	}
	if res.Flags != res.Windows {
		t.Fatalf("always-secure fallback flagged %d of %d windows", res.Flags, res.Windows)
	}
	if res.SecureInstr == 0 {
		t.Fatal("mitigation never engaged under the fallback")
	}
}

// Package runflags is the run-plane's one command-line face: the flags
// the front ends share (-store, -parallel, -check, -profile, -critpath),
// the runner those flags build, the sidecars -profile and -critpath
// promise, and the accounting lines printed when the run ends. Each front end mounts the subset it offers; every flag
// has one name, one default and one help text wherever it appears.
package runflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clustersoc/internal/critpath"
	"clustersoc/internal/obs"
	"clustersoc/internal/runner"
)

// Mount selects the shared flags a front end declares.
type Mount uint8

const (
	// Store declares -store, the persistent result store directory.
	Store Mount = 1 << iota
	// Parallel declares -parallel, the worker-pool bound.
	Parallel
	// Observe declares -check, -profile and -critpath.
	Observe
	// All declares every shared flag.
	All = Store | Parallel | Observe
)

// Flags holds the parsed run-plane flags. A front end may set fields its
// mount does not declare before building the runner.
type Flags struct {
	// Store is the persistent store directory; empty means none.
	Store string
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS). Without a
	// mounted -parallel it stays 1: such a front end runs one scenario.
	Parallel int
	// Observers are the observers attached to every executed scenario.
	Observers runner.Observers
}

// Register declares the flags m selects on fs and returns where their
// values land once fs is parsed.
func Register(fs *flag.FlagSet, m Mount) *Flags {
	f := &Flags{Parallel: 1}
	if m&Store != 0 {
		fs.StringVar(&f.Store, "store", os.Getenv("CLUSTERSOC_STORE"),
			"persistent content-addressed result store directory (default $CLUSTERSOC_STORE): stored results decode instead of re-simulating and every simulated one is persisted; results are deterministic, so entries never go stale")
	}
	if m&Parallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
	}
	if m&Observe != 0 {
		fs.BoolVar(&f.Observers.Check, "check", false,
			"audit every simulated scenario with simcheck (flow conservation, MPI schedule balance, port utilization); violations fail the run")
		fs.BoolVar(&f.Observers.Profile, "profile", false,
			"collect per-scenario observability profiles and write them to a *.profile.json sidecar")
		fs.BoolVar(&f.Observers.CritPath, "critpath", false,
			"record the causal event graph of every simulated scenario and write per-component blame, slack and what-if bounds to a *.critpath.json sidecar (inspect with cmd/whatif)")
	}
	return f
}

// Runner builds the run-plane the flags describe: a runner with the
// observers attached and, when a store directory is set, the store
// opened as its second tier.
func (f *Flags) Runner() (*runner.Runner, error) {
	r := runner.New(f.Parallel)
	r.SetObservers(f.Observers)
	if f.Store != "" {
		st, err := runner.OpenStore(f.Store)
		if err != nil {
			return nil, err
		}
		r.SetStore(st)
	}
	return r, nil
}

// Report writes r's accounting: the run-plane line and, with a store
// attached, the store line.
func Report(w io.Writer, r *runner.Runner) {
	st := r.Stats()
	fmt.Fprintf(w, "run-plane: %d scenarios submitted, %d simulated, %d duplicates served from cache (%d workers, peak %d in flight, %.1fs simulation wall)\n",
		st.Submitted, st.Simulated, st.Hits, r.Workers(), st.MaxInFlight, st.WallSeconds)
	if ps := r.Store(); ps != nil {
		fmt.Fprintf(w, "store: %d hits, %d misses, %d writes, %d corrupt (%s, schema %d)\n",
			st.StoreHits, st.StoreMisses, st.StoreWrites, st.StoreCorrupt, ps.Dir(), ps.Schema())
	}
}

// WriteSidecars writes the observer records of every scenario r ran:
// under -profile the profiles to base+".profile.json", under -critpath
// the critical-path reports to base+".critpath.json". It names each file
// it writes on w.
func (f *Flags) WriteSidecars(w io.Writer, r *runner.Runner, base string) error {
	if f.Observers.Profile {
		profs := r.Profiles()
		path := base + ".profile.json"
		if err := writeFile(path, func(out io.Writer) error { return obs.WriteProfiles(out, profs) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d profiles to %s\n", len(profs), path)
	}
	if f.Observers.CritPath {
		reports := r.Reports()
		path := base + ".critpath.json"
		if err := writeFile(path, func(out io.Writer) error { return critpath.WriteReports(out, reports) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d critical-path reports to %s (inspect with cmd/whatif)\n", len(reports), path)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

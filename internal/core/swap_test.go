package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
)

// scaledSeed builds a database with the seed's foods, descriptions and
// weight tables but every nutrient vector multiplied by factor — the
// minimal "new release of the same DB" whose estimates are guaranteed
// to differ from the seed's on every mapped phrase.
func scaledSeed(t testing.TB, factor float64) *usda.DB {
	t.Helper()
	seed := usda.Seed()
	foods := make([]usda.Food, seed.Len())
	for i := range foods {
		f := seed.At(i).Food()
		f.Per100g = f.Per100g.Scale(factor)
		foods[i] = f
	}
	db, err := usda.NewDB(foods)
	if err != nil {
		t.Fatalf("scaledSeed: %v", err)
	}
	return db
}

var swapPhrases = []string{
	"1 cup butter",
	"2 cups all-purpose flour",
	"1/2 cup sugar",
	"3 large eggs",
	"1 tsp salt",
	"2 tbsp olive oil",
	"1 cup whole milk",
	"1 lb chicken breast",
	"2 cloves garlic, minced",
	"1 medium onion, chopped",
	"1 cup cooked white rice",
	"8 oz spaghetti",
	"1 can black beans, drained",
	"1 cup shredded cheddar cheese",
	"1 tbsp unsalted butter, softened",
	"pinch of phantasmagorical dust",
}

func TestInstallSwapsSnapshotAndPurgesCaches(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SnapshotStats(); got.Version != 1 || got.Source != "boot" {
		t.Fatalf("boot snapshot = %+v, want version 1 source boot", got)
	}

	before := e.EstimateIngredient("1 cup butter")
	if !before.Mapped {
		t.Fatal("seed estimate not mapped")
	}
	// Prime the caches so a missing purge would serve the stale profile.
	for i := 0; i < 3; i++ {
		e.EstimateIngredient("1 cup butter")
	}

	db2 := scaledSeed(t, 2)
	st, err := e.Install(db2, match.BuildIndex(db2), "unit-test-image")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Source != "unit-test-image" || st.Foods != db2.Len() {
		t.Fatalf("install stats = %+v", st)
	}
	if e.DB() != db2 {
		t.Fatal("DB() does not expose the installed database")
	}

	after := e.EstimateIngredient("1 cup butter")
	if !after.Mapped {
		t.Fatal("post-install estimate not mapped")
	}
	want := before.Profile.Scale(2)
	if after.Profile != want {
		t.Fatalf("post-install profile %+v, want scaled %+v (stale cache?)", after.Profile, want)
	}
	// And again, now through the re-primed cache.
	if again := e.EstimateIngredient("1 cup butter"); again.Profile != want {
		t.Fatalf("cached post-install profile %+v, want %+v", again.Profile, want)
	}
}

func TestInstallRejectsNilDB(t *testing.T) {
	e := NewDefault()
	if _, err := e.Install(nil, nil, "x"); err == nil {
		t.Fatal("Install(nil) did not error")
	}
}

// TestInstallRequiresIndex: Install adopts the index it is given and
// never builds one, so a missing index is an error and the boot
// snapshot keeps serving.
func TestInstallRequiresIndex(t *testing.T) {
	e := NewDefault()
	if _, err := e.Install(usda.Seed(), nil, "x"); err == nil {
		t.Fatal("Install(db, nil index) did not error")
	}
	if got := e.SnapshotStats(); got.Version != 1 || got.Source != "boot" {
		t.Fatalf("snapshot after a refused install = %+v, want the boot snapshot", got)
	}
}

// TestObserveUnitsBumpsGenNotVersion: an observation pass retires the
// phrase cache's generation, which is what fences stale stores, and
// leaves the snapshot alone: same version, same database, same matcher.
func TestObserveUnitsBumpsGenNotVersion(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	before, snap := e.SnapshotStats(), e.Current()
	phraseGen, matchGen := e.phraseCache.Gen(), e.matchCache.Gen()
	e.ObserveUnits([]string{"1 cup butter", "2 cups flour"})
	if after := e.SnapshotStats(); after != before {
		t.Fatalf("ObserveUnits moved the snapshot %+v -> %+v", before, after)
	}
	if e.Current() != snap {
		t.Fatal("ObserveUnits published a new snapshot")
	}
	if g := e.phraseCache.Gen(); g <= phraseGen {
		t.Fatalf("ObserveUnits did not bump the phrase cache's gen (%d -> %d)", phraseGen, g)
	}
	if g := e.matchCache.Gen(); g != matchGen {
		t.Fatalf("ObserveUnits purged the match cache (gen %d -> %d); matches do not depend on unit statistics", matchGen, g)
	}
}

func TestInstallVersionsStrictlyMonotonicUnderConcurrency(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const installers, per = 8, 6
	db2 := scaledSeed(t, 1.5)
	idx2 := match.BuildIndex(db2)
	versions := make([][]uint64, installers)
	var wg sync.WaitGroup
	for g := 0; g < installers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st, err := e.Install(db2, idx2, fmt.Sprintf("g%d-%d", g, i))
				if err != nil {
					t.Errorf("install: %v", err)
					return
				}
				versions[g] = append(versions[g], st.Version)
			}
		}(g)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	for g, vs := range versions {
		for i, v := range vs {
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("goroutine %d saw non-monotonic versions %v", g, vs)
			}
			if seen[v] {
				t.Fatalf("version %d returned twice", v)
			}
			seen[v] = true
		}
	}
	if got := e.SnapshotStats().Version; got != 1+installers*per {
		t.Fatalf("final version %d, want %d", got, 1+installers*per)
	}
}

// TestReloadStorm is the ISSUE's acceptance scenario: 32 goroutines of
// mixed single-phrase and batch estimation racing continuous database
// reloads. Every result must be byte-identical to the pure database-A
// or pure database-B result for that phrase — a torn read (matcher from
// one snapshot, nutrient vectors from another, or a stale cache entry
// surviving a swap) produces a profile matching neither. Run under
// -race in CI.
func TestReloadStorm(t *testing.T) {
	dbA := usda.Seed()
	dbB := scaledSeed(t, 3)
	idxA, idxB := match.BuildIndex(dbA), match.BuildIndex(dbB)
	opts := Options{CacheSize: 512}

	// Reference results from isolated estimators per database.
	expect := func(db *usda.DB) []IngredientResult {
		ref, err := New(db, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]IngredientResult, len(swapPhrases))
		for i, p := range swapPhrases {
			out[i] = ref.EstimateIngredient(p)
		}
		return out
	}
	expA, expB := expect(dbA), expect(dbB)

	e, err := New(dbA, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	const estimators = 32
	const installsPerReloader = 40
	stop := make(chan struct{})
	var bad atomic.Int64
	check := func(i int, r IngredientResult) {
		if !reflect.DeepEqual(r, expA[i]) && !reflect.DeepEqual(r, expB[i]) {
			if bad.Add(1) < 5 {
				t.Errorf("torn result for %q: %+v\n  wantA %+v\n  wantB %+v", swapPhrases[i], r, expA[i], expB[i])
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < estimators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (g + iter) % 3 {
				case 0:
					i := (g + iter) % len(swapPhrases)
					check(i, e.EstimateIngredient(swapPhrases[i]))
				case 1:
					for i, r := range estimateAll(t, e, swapPhrases, 4) {
						check(i, r)
					}
				default:
					for i, r := range estimateAll(t, e, swapPhrases, 1) {
						check(i, r)
					}
				}
			}
		}(g)
	}

	// Two reloaders alternate the databases under the estimators.
	var rwg sync.WaitGroup
	lastVersion := atomic.Uint64{}
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; i < installsPerReloader; i++ {
				db, idx := dbA, idxA
				if (r+i)%2 == 0 {
					db, idx = dbB, idxB
				}
				st, err := e.Install(db, idx, "storm")
				if err != nil {
					t.Errorf("install: %v", err)
					return
				}
				for {
					prev := lastVersion.Load()
					if st.Version <= prev || lastVersion.CompareAndSwap(prev, st.Version) {
						break
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d torn results", n)
	}
	if got := e.SnapshotStats().Version; got != 1+2*installsPerReloader {
		t.Fatalf("final version %d, want %d (lost installs)", got, 1+2*installsPerReloader)
	}
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"activedr/internal/synth"
	"activedr/internal/trace"
)

// generate writes a synthetic dataset for seed and users under dir:
// the benchmark's inputs. The same arguments always give the same
// files.
func generate(dir string, seed int64, users int) error {
	ds, err := synth.Generate(synth.Config{Seed: synthSeed(seed), Users: users})
	if err != nil {
		return err
	}
	return trace.WriteDataset(dir, ds)
}

// synthSeed spreads the benchmark seed over the generator's seed
// space; synth treats 0 as "use the default seed", so 0 is avoided.
func synthSeed(seed int64) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + 1
}

// generateInChild runs generate in a child process, so the measuring
// process's heap and resident-set high-water mark never hold the
// generator's working set.
func generateInChild(dir string, seed int64, users int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "gen", "-out", dir, "-seed", fmt.Sprint(seed), "-users", fmt.Sprint(users))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	return nil
}

// genMain is the child-process entry point behind generateInChild.
func genMain(args []string, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench gen", flag.ContinueOnError)
	fs.SetOutput(errOut)
	out := fs.String("out", "", "dataset directory to write")
	seed := fs.Int64("seed", 1, "input seed")
	users := fs.Int("users", 0, "synthetic users")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || *users <= 0 {
		fmt.Fprintln(errOut, "perfbench gen: -out and a positive -users are required")
		return 2
	}
	if err := generate(*out, *seed, *users); err != nil {
		fmt.Fprintln(errOut, "perfbench gen:", err)
		return 1
	}
	return 0
}

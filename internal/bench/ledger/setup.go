package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// setupEnv, when set in the environment, makes this binary a set-up child:
// it sets up the workload the value names, says "ready" on standard output,
// tears the set-up down and exits. Each setup_s sample is one such child,
// so it covers process start and package initialisation as well as the
// set-up itself.
const setupEnv = "LEDGER_SETUP"

type setupSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dir      string `json:"dir"`
}

// coldSetup sets w up in a fresh process of this binary and returns the
// seconds from starting the process to its report of ready.
func coldSetup(w workload, seed int64, dir string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(setupSpec{w.name, seed, dir})
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), setupEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("%s set-up process: %w", w.name, err)
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	s := time.Since(t0).Seconds()
	if werr := cmd.Wait(); werr != nil || rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("%s set-up process: said %q, read error %v, exit %v", w.name, line, rerr, werr)
	}
	return s, nil
}

// setupChild does a set-up child's work when setupEnv is set, and reports
// whether it was.
func setupChild() (code int, child bool) {
	raw, ok := os.LookupEnv(setupEnv)
	if !ok {
		return 0, false
	}
	var spec setupSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", setupEnv, err)
		return 2, true
	}
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "ledger: %s: unknown workload %q\n", setupEnv, spec.Workload)
		return 2, true
	}
	inst, err := setUp(w, spec.Seed, false, spec.Dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1, true
	}
	fmt.Println("ready")
	inst.close()
	return 0, true
}

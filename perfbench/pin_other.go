//go:build !linux

package main

import "errors"

const oneCPUEnv = "PERFBENCH_ONE_CPU"

func runOnOneCPU() error { return errors.New("CPU affinity is not supported on this system") }

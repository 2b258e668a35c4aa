//go:build !linux

package main

// The benchmark's numbers are defined on Linux (VmHWM, statfs); elsewhere
// it still runs, with these rows unknown.

func peakRSSMB() float64 { return 0 }

func onTmpfs(string) bool { return false }

func cpuModel() string { return "unknown" }

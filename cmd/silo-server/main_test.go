package main

import (
	"testing"

	"silo/server"
)

// TestParseAckMode pins -ack-mode: the two modes and auto's choice
// between them, durable acks refused without a log, and the removed
// per-request mode rejected by name like any unknown value.
func TestParseAckMode(t *testing.T) {
	for _, c := range []struct {
		mode         string
		sync, hasLog bool
		want         server.AckMode
		ok           bool
	}{
		{"auto", true, true, server.AckGroup, true},
		{"auto", false, true, server.AckImmediate, true},
		{"auto", true, false, server.AckImmediate, true},
		{"group", false, true, server.AckGroup, true},
		{"group", true, false, 0, false},
		{"immediate", true, true, server.AckImmediate, true},
		{"immediate", false, false, server.AckImmediate, true},
		{"request", true, true, 0, false},
		{"", true, true, 0, false},
	} {
		got, err := parseAckMode(c.mode, c.sync, c.hasLog)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseAckMode(%q, sync=%v, log=%v) = %v, %v; want %v, ok=%v",
				c.mode, c.sync, c.hasLog, got, err, c.want, c.ok)
		}
	}
}

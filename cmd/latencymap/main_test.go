package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/constellation"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-name", "kuiper", "-step", "10", "-t", "120"})
	if err != nil {
		t.Fatal(err)
	}
	if o.name != "kuiper" || o.stepDeg != 10 || o.atSec != 120 {
		t.Fatalf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"-step", "0.1"}); err != nil {
		t.Fatalf("the CSV's own resolution refused: %v", err)
	}
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "0.09"},
		{"-step", "1e-9"},
		{"-step", "31"},
		{"-step", "NaN"},
		{"-t", "NaN"},
		{"-t", "Inf"},
		{"-t", "-Inf"},
		{"-nope"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	o, err := parseFlags([]string{"-name", "telesat", "-step", "15"})
	if err != nil {
		t.Fatal(err)
	}
	var out, csv strings.Builder
	if err := run(&out, &csv, o); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header + 13 latitude rows (90..-90 at 15°) + coverage summary.
	if len(lines) != 15 {
		t.Fatalf("map has %d lines, want 15:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "Telesat at t=0s") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], "coverage:") {
		t.Fatalf("missing coverage summary: %q", lines[len(lines)-1])
	}
	// Telesat has polar shells: the pole rows must be covered. Glyphs sit
	// between the pipes; the latitude label before them contains a '.'.
	glyphs := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if strings.Contains(glyphs, ".") {
		t.Fatalf("north pole row uncovered: %q", lines[1])
	}

	csvLines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if csvLines[0] != "lat,lon,nearest_rtt_ms,reachable" {
		t.Fatalf("csv header = %q", csvLines[0])
	}
	// 13 latitude rows × 25 longitude columns.
	if len(csvLines) != 1+13*25 {
		t.Fatalf("csv has %d lines, want %d", len(csvLines), 1+13*25)
	}
}

// TestBuildNamed checks that every name the -name flag offers builds a
// constellation and that an unknown name is refused.
func TestBuildNamed(t *testing.T) {
	for _, name := range []string{"starlink", "kuiper", "telesat"} {
		c, err := constellation.Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Size() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if err := run(io.Discard, nil, options{name: "atlantis"}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

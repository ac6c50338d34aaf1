package lint

import (
	"sort"
	"strings"
)

// knownDirectives maps every //unsync:allow-* audit directive to the
// rule it suppresses. Adding a rule with an audit escape means adding
// a row here, or the directive is reported as unknown.
var knownDirectives = map[string]string{
	"allow-wallclock":    "wallclock",
	"allow-maprange":     "maprange",
	"allow-panic":        "panic-path",
	"allow-measure-loop": "measureloop",
	"allow-sleep":        "sleep",
	"allow-timer":        "timer-leak",
	"allow-goroutine":    "goroutine-leak",
	"allow-ctx":          "ctx-propagation",
	"allow-lock-held":    "lock-held-blocking",
	"allow-alloc":        "lane-alloc",
	"allow-send":         "blocking-send",
}

// auditRules polices the audit surface itself, after every other rule
// has run and marked the directives it consulted:
//
//   - stale-audit: an //unsync:allow-* directive that names no known
//     rule, or that suppressed no finding this run, is itself a
//     finding — the audit surface can only shrink, never silently rot;
//   - bare-audit: a live directive with no trailing justification text
//     is a finding — every audited site must say why it is safe.
func (m *module) auditRules() []Finding {
	var fs []Finding
	files := make([]string, 0, len(m.directives))
	for file := range m.directives {
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		byLine := m.directives[file]
		lines := make([]int, 0, len(byLine))
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, d := range byLine[line] {
				if !strings.HasPrefix(d.name, "allow-") {
					continue
				}
				rule, known := knownDirectives[d.name]
				if !known {
					fs = append(fs, m.finding("stale-audit", d.pos,
						"unknown audit directive //unsync:%s names no lint rule; remove it or fix the name", d.name))
					continue
				}
				if !d.used {
					fs = append(fs, m.finding("stale-audit", d.pos,
						"//unsync:%s suppresses no %s finding; the audited code changed — remove the stale directive", d.name, rule))
					continue
				}
				if d.arg == "" {
					fs = append(fs, m.finding("bare-audit", d.pos,
						"//unsync:%s lacks a justification; append why the audited site is safe", d.name))
				}
			}
		}
	}
	return fs
}

package semantic

import (
	"strconv"
	"strings"

	"repro/internal/core"
)

// Domain validators for schema-primed checks. Database introspection maps
// column names and declared types onto one of these domains (a column
// named email, a DATE-typed column, ...), and CheckDomain then validates
// the values against the domain's shape even when syntactic NPMI is
// ambiguous about them. Validators are deliberately permissive shape
// checks, not RFC parsers: the goal is catching a phone number in the
// email column, not adjudicating exotic-but-legal addresses.

// domainValidators maps each known domain to its value predicate.
var domainValidators = map[string]func(string) bool{
	"email":        validEmail,
	"phone":        validPhone,
	"zip":          validZip,
	"url":          validURL,
	"ipv4":         validIPv4,
	"uuid":         validUUID,
	"date":         validDate,
	"year":         validYear,
	"country_code": validCountryCode,
	"bool":         validBool,
}

// KnownDomain reports whether CheckDomain can validate the named domain.
// Callers accepting hints from users (the jobs HTTP API) reject unknown
// names up front rather than silently skipping the check.
func KnownDomain(domain string) bool {
	_, ok := domainValidators[domain]
	return ok
}

// CheckDomain validates a column's values against a hinted semantic
// domain, flagging the values that don't conform. The hint is treated as
// evidence, not truth: if fewer than ConformityFloor of the non-empty
// values conform, the hint is judged wrong for this column (an "email"
// column holding user IDs) and no findings are returned. Empty values are
// ignored — NULL-ness is the completeness checker's business, not the
// format's. Each distinct non-conforming value is flagged once, at its
// first occurrence, with confidence equal to the column's conformity rate
// (the stronger the column's consensus, the more confident the outlier
// call); Partner names the domain's format ("email format"). Unknown
// domains return nil.
func CheckDomain(domain string, values []string) []core.Finding {
	valid := domainValidators[domain]
	if valid == nil {
		return nil
	}
	nonEmpty, conforming := 0, 0
	for _, v := range values {
		if v == "" {
			continue
		}
		nonEmpty++
		if valid(v) {
			conforming++
		}
	}
	if nonEmpty == 0 || conforming == nonEmpty {
		return nil
	}
	rate := float64(conforming) / float64(nonEmpty)
	if rate < ConformityFloor {
		return nil
	}
	var findings []core.Finding
	seen := make(map[string]bool)
	for i, v := range values {
		if v == "" || valid(v) || seen[v] {
			continue
		}
		seen[v] = true
		findings = append(findings, core.Finding{
			Value:      v,
			Index:      i,
			Partner:    domain + " format",
			Confidence: rate,
		})
	}
	return findings
}

// ConformityFloor is the fraction of a column's non-empty values that must
// conform before a domain hint is trusted enough to flag the rest.
const ConformityFloor = 0.8

func validEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	if at <= 0 || at == len(s)-1 || strings.ContainsAny(s, " \t") {
		return false
	}
	domain := s[at+1:]
	dot := strings.LastIndexByte(domain, '.')
	return !strings.ContainsRune(domain, '@') &&
		dot > 0 && dot < len(domain)-1
}

// validPhone accepts 7–15 digits with the usual punctuation (+, spaces,
// dots, dashes, parentheses).
func validPhone(s string) bool {
	digits := 0
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '+' && i == 0:
		case r == ' ' || r == '-' || r == '.' || r == '(' || r == ')':
		default:
			return false
		}
	}
	return digits >= 7 && digits <= 15
}

// validZip accepts US 5-digit (optionally ZIP+4) codes.
func validZip(s string) bool {
	if len(s) == 10 && s[5] == '-' {
		return allDigits(s[:5]) && allDigits(s[6:])
	}
	return len(s) == 5 && allDigits(s)
}

func validURL(s string) bool {
	rest, ok := strings.CutPrefix(s, "https://")
	if !ok {
		rest, ok = strings.CutPrefix(s, "http://")
	}
	return ok && rest != "" && !strings.ContainsAny(rest, " \t")
}

func validIPv4(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if p == "" || len(p) > 3 || !allDigits(p) {
			return false
		}
		if n, _ := strconv.Atoi(p); n > 255 {
			return false
		}
	}
	return true
}

func validUUID(s string) bool {
	if len(s) != 36 {
		return false
	}
	for i, r := range s {
		if i == 8 || i == 13 || i == 18 || i == 23 {
			if r != '-' {
				return false
			}
			continue
		}
		if !isHex(byte(r)) {
			return false
		}
	}
	return true
}

// validDate accepts ISO dates (2006-01-02), optionally with a time part
// (RFC 3339 or "2006-01-02 15:04:05").
func validDate(s string) bool {
	if len(s) < 10 {
		return false
	}
	d := s[:10]
	if d[4] != '-' || d[7] != '-' ||
		!allDigits(d[:4]) || !allDigits(d[5:7]) || !allDigits(d[8:10]) {
		return false
	}
	month, _ := strconv.Atoi(d[5:7])
	day, _ := strconv.Atoi(d[8:10])
	if month < 1 || month > 12 || day < 1 || day > 31 {
		return false
	}
	return len(s) == 10 || s[10] == 'T' || s[10] == ' '
}

func validYear(s string) bool {
	if len(s) != 4 || !allDigits(s) {
		return false
	}
	y, _ := strconv.Atoi(s)
	return y >= 1000 && y <= 2999
}

// validCountryCode accepts ISO 3166-1 alpha-2 shapes (two ASCII letters).
func validCountryCode(s string) bool {
	return len(s) == 2 &&
		isLetter(s[0]) && isLetter(s[1])
}

func validBool(s string) bool {
	switch strings.ToLower(s) {
	case "true", "false", "t", "f", "yes", "no", "y", "n", "0", "1":
		return true
	}
	return false
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

func isHex(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}

func isLetter(b byte) bool {
	return b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'
}

// Package jsonx is the serving layer's JSON codec: append-style encoders
// whose output is byte-for-byte identical to encoding/json's default
// (HTML-escaping) marshaler, and a zero-allocation pull decoder for the
// small request shapes the API accepts, so a warm handler renders into
// its pooled arena without walking reflection metadata per request.
//
// encoding/json is the executable specification: every primitive here is
// pinned to it by differential tests (strings across the escaping
// classes, floats across the exponent-format switchover), and the
// serving layer pins whole response bodies against json.Marshal over the
// golden corpus. The decoder matches encoding/json's *semantics* for the
// request shapes (null handling, unknown-field rejection, last-duplicate
// wins, one value read with trailing bytes ignored) but reports its own
// error strings — error text is not part of the API contract, only the
// structured error code is.
package jsonx

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json with its default EscapeHTML(true) behavior: ", \ and
// control bytes are escaped (\b \f \n \r \t named, the rest \u00xx),
// <, > and & become their \u00xx escapes, invalid UTF-8 bytes are
// replaced with U+FFFD, and U+2028/U+2029 are escaped for JSONP safety.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f in encoding/json's float64 notation: shortest
// 'f' form in [1e-6, 1e21), 'e' form outside with the exponent's leading
// zero stripped (1e-07 → 1e-7). f must be finite — encoding/json refuses
// NaN/Inf with an error, and the serving layer's profiles are validated
// finite, so this appender has no error path.
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendInt appends v in base 10.
func AppendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// AppendBool appends true or false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

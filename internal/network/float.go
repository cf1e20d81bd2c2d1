package network

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The exact float reader of the Results decoder. A cache entry's floats are
// shortest-form energies of 16 and 17 significant digits, and strconv's
// general scanner was a quarter of a warm pass. fastFloat reads a literal
// in one pass (sign, at most 19 significant digits, decimal exponent) and
// converts man×10^exp10 without rounding twice:
//
//   - Clinger's fast path: man < 2^53 and |exp10| <= 22 make both operands
//     exact float64s, so one IEEE multiply or divide rounds once, correctly.
//   - Eisel–Lemire: man times a 128-bit truncation of 10^exp10, which
//     either determines the correctly rounded result or reports that the
//     truncation leaves it ambiguous (a near-halfway case) and declines.
//
// Anything declined — more digits, an ambiguous case, a subnormal or
// out-of-range result, a literal that is not JSON — goes to number() and
// strconv.ParseFloat, so every value is the one encoding/json produces.

// fastFloat reads the number literal at the cursor and reports whether it
// converted it exactly; when it did not, the cursor has not moved.
func (d *decoder) fastFloat() (float64, bool) {
	d.space()
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var man uint64
	sig, exp10 := 0, 0
	// Integer part: a lone 0 or a run of digits starting 1-9.
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		start := i
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if sig++; sig > 19 {
				return 0, false
			}
			man = man*10 + uint64(data[i]-'0')
		}
		if i == start {
			return 0, false
		}
	}
	if i < len(data) && data[i] == '.' {
		start := i + 1
		for i = start; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if exp10--; man == 0 && data[i] == '0' {
				continue // a leading zero is not significant
			}
			if sig++; sig > 19 {
				return 0, false
			}
			man = man*10 + uint64(data[i]-'0')
		}
		if i == start {
			return 0, false
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		eneg := i < len(data) && data[i] == '-'
		if i < len(data) && (data[i] == '-' || data[i] == '+') {
			i++
		}
		start, e := i, 0
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if e < 1e4 { // beyond any float64; the conversion declines
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == start {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	f, ok := exact(man, exp10, neg)
	if ok {
		d.pos = i
	}
	return f, ok
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exact returns the float64 nearest man×10^exp10 (negated when neg), or
// false when neither exact method settles it.
func exact(man uint64, exp10 int, neg bool) (float64, bool) {
	var f float64
	switch {
	case man == 0:
	case man < 1<<53 && -22 <= exp10 && exp10 <= 22:
		if f = float64(man); exp10 < 0 {
			f /= pow10[-exp10]
		} else {
			f *= pow10[exp10]
		}
	default:
		return eiselLemire(man, exp10, neg)
	}
	if neg {
		f = -f
	}
	return f, true
}

// The powers of ten Eisel–Lemire multiplies by, 10^-348 through 10^347:
// enough that every float64 literal with 19 digits or fewer is in range.
const minExp10, maxExp10 = -348, 347

// powers returns the table: row q-minExp10 is the 128 most significant bits
// of 10^q, truncated, as {high, low} halves. Its binary exponent is
// implied: 10^q = row × 2^(floor(q·log2 10) - 127), within one unit of the
// low half.
var powers = sync.OnceValue(func() *[maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	row := func(q int, x *big.Int) {
		t[q-minExp10] = [2]uint64{new(big.Int).Rsh(x, 64).Uint64(), x.Uint64()}
	}
	ten, p := big.NewInt(10), big.NewInt(1) // p = 10^k
	for k := 0; k <= -minExp10; k++ {
		n := p.BitLen()
		switch {
		case k > maxExp10:
		case n > 128: // 10^k cut to its top 128 bits
			row(k, new(big.Int).Rsh(p, uint(n-128)))
		default:
			row(k, new(big.Int).Lsh(p, uint(128-n)))
		}
		if k > 0 {
			// 10^-k lies in (2^-n, 2^(1-n)), so floor(2^(n+127) / 10^k)
			// has exactly 128 bits.
			num := new(big.Int).Lsh(big.NewInt(1), uint(n+127))
			row(-k, num.Quo(num, p))
		}
		p.Mul(p, ten)
	}
	return &t
})

// eiselLemire converts man×10^exp10 for man != 0 (Lemire, "Number Parsing at
// a Gigabyte per Second", 2021; Nigel Tao's presentation of it for Go's
// strconv). It declines rather than guess: when the truncated product
// cannot tell which way a near-halfway value rounds, and when the result
// is subnormal, infinite or beyond the table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	pow := &powers()[exp10-minExp10]

	// Normalise man to a set top bit; the exponent of the product follows
	// from floor(exp10·log2 10) = 217706·exp10 >> 16 over the table's range.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The top 128 bits of man × 10^exp10 from the high half of the power;
	// when the low 9 bits that decide the rounding are all ones, the
	// error of leaving out the low half could carry into them, so take it
	// into account, and decline if it still might.
	hi, lo := bits.Mul64(man, pow[0])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits: the 53 of a float64 and one to round with.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// Exactly halfway as far as the truncation can tell: it cannot tell
	// whether the true value is above or below.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round to nearest (a tie left here has an odd mantissa, so rounding
	// it up is rounding to even), renormalising if that carried out of 53
	// bits.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // a biased exponent of 0 (subnormal) or 0x7FF (infinity)
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

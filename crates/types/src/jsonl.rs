//! Newline JSON, one record per line: how the event trace (`mp5-trace`)
//! and the `mp5serve --stdin` packet feed (`mp5-serve`) are read.

use std::io::{BufRead, ErrorKind};

/// The records of newline JSON in `reader`, each with its 1-based line
/// number (blank lines are skipped but counted), to the end of input.
///
/// `walk` reads a record laid out exactly as its writer writes it, or
/// stops with `None`; it takes only ASCII and decides no error. It runs
/// where a line sits in the reader's buffer and takes its `\n` too, so a
/// walked line needs no newline search and no UTF-8 check. Any other line
/// is cut at its newline, checked as UTF-8 and answered by `read`, as
/// `BufRead::read_line` gives it, or unreadable with why. Only a line that
/// runs past a buffer's end is gathered into a carry buffer first. Items,
/// line numbers and errors are those of a reader that takes lines with
/// `read_line`, which also goes on at the next line after an error.
pub fn records<R: BufRead, T, E>(
    mut reader: R,
    mut walk: impl FnMut(&mut Cursor<'_>) -> Option<T>,
    mut read: impl FnMut(Result<&str, String>, usize) -> Result<T, E>,
) -> impl Iterator<Item = Result<(usize, T), E>> {
    // A line begun in an earlier buffer, and the lines read so far.
    let (mut carry, mut number) = (Vec::new(), 0);
    std::iter::from_fn(move || loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                // `read_line` drops what it had of the line.
                number += 1;
                carry.clear();
                return Some(read(Err(e.to_string()), number).map(|r| (number, r)));
            }
        };
        if carry.is_empty() {
            // The record stays where the walk wrote it until returned:
            // a helper's `Option` around it cost a trace line ≈ 20 ns.
            let mut c = Cursor::new(buf);
            let record = walk(&mut c);
            if record.is_some() && c.lit(b"\n").is_some() {
                let used = buf.len() - c.rest.len();
                reader.consume(used);
                number += 1;
                return record.map(|record| Ok((number, record)));
            }
        }
        let end = match newline(buf) {
            Some(nl) => nl + 1,
            // The end of input, after a last line with no newline.
            None if buf.is_empty() => 0,
            None => {
                carry.extend_from_slice(buf);
                let used = buf.len();
                reader.consume(used);
                continue;
            }
        };
        number += 1;
        // The line as `BufRead::read_line` gives it: `read`'s answer, or
        // none for a blank line.
        let mut bytes = &buf[..end];
        if !carry.is_empty() {
            carry.extend_from_slice(bytes);
            bytes = &carry;
        }
        let item = match std::str::from_utf8(bytes) {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(read(Ok(text), number)),
            // `read_line`'s error.
            Err(_) => Some(read(
                Err("stream did not contain valid UTF-8".into()),
                number,
            )),
        };
        carry.clear();
        reader.consume(end);
        if item.is_some() || end == 0 {
            return item.map(|answer| answer.map(|record| (number, record)));
        }
    })
}

/// The index of the first `\n` in `bytes`, looked for a word at a time.
#[inline]
fn newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let (words, _) = bytes.as_chunks::<8>();
    let found = |w: &[u8; 8]| {
        let x = u64::from_ne_bytes(*w) ^ NEWLINES;
        // Nonzero exactly when a byte of `x` is zero: a `\n` in `w`.
        x.wrapping_sub(ONES) & !x & HIGHS != 0
    };
    let at = 8 * words.iter().position(found).unwrap_or(words.len());
    bytes[at..].iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// A walk over a line's bytes against the constant runs its writer
/// writes: each step passes what it matched, or stops with `None` at the
/// first byte that differs. The steps are inlined into each call site,
/// where the run is a constant: a comparison becomes a few fixed loads
/// and the bounds checks fold away.
pub struct Cursor<'a> {
    /// The bytes not yet walked.
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline(always)]
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// The bytes after the cursor.
    #[inline(always)]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Whether only what a JSON reader skips after a value follows.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.rest
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    }

    /// Exactly `expect`.
    #[inline(always)]
    pub fn lit(&mut self, expect: &[u8]) -> Option<()> {
        self.rest = self.rest.strip_prefix(expect)?;
        Some(())
    }

    /// A plain decimal integer: 1 to 19 digits with no leading zero,
    /// which cannot overflow. A wider one, `u64::MAX` among them, stops
    /// the walk.
    #[inline(always)]
    pub fn uint(&mut self) -> Option<u64> {
        let mut n = 0u64;
        let mut len = 0;
        for &b in self.rest {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit));
            len += 1;
        }
        let plain = (1..=19).contains(&len) && (len == 1 || self.rest[0] != b'0');
        self.rest = self.rest.get(len..).filter(|_| plain)?;
        Some(n)
    }

    /// A [`Cursor::uint`] with an optional `-`, in `i64`'s range.
    #[inline(always)]
    pub fn int(&mut self) -> Option<i64> {
        match self.lit(b"-") {
            Some(()) => 0i64.checked_sub_unsigned(self.uint()?),
            None => i64::try_from(self.uint()?).ok(),
        }
    }

    /// `key`, then a [`Cursor::uint`].
    #[inline(always)]
    pub fn num(&mut self, key: &[u8]) -> Option<u64> {
        self.lit(key)?;
        self.uint()
    }

    /// `key`, then a [`Cursor::uint`] that fits `T`.
    #[inline(always)]
    pub fn narrow<T: TryFrom<u64>>(&mut self, key: &[u8]) -> Option<T> {
        T::try_from(self.num(key)?).ok()
    }

    /// `key`, then `true` or `false`.
    #[inline(always)]
    pub fn flag(&mut self, key: &[u8]) -> Option<bool> {
        self.lit(key)?;
        match self.lit(b"true") {
            Some(()) => Some(true),
            None => self.lit(b"false").map(|()| false),
        }
    }

    /// The bytes up to the next `"`, which is passed.
    #[inline(always)]
    pub fn quoted(&mut self) -> Option<&'a [u8]> {
        let len = self.rest.iter().position(|&b| b == b'"')?;
        let (text, rest) = self.rest.split_at(len);
        self.rest = &rest[1..];
        Some(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn newline_is_found_at_every_offset() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(newline(&bytes), None);
            for at in 0..len {
                bytes[at] = b'\n';
                assert_eq!(newline(&bytes), Some(at), "{len} bytes");
                // A byte that differs from `\n` in one bit is not one.
                bytes[at] = b'\n' ^ 0x80;
                assert_eq!(newline(&bytes), None);
                bytes[at] = b'x';
            }
        }
    }

    #[test]
    fn uint_takes_plain_integers_of_1_to_19_digits() {
        let read = |text: &str| {
            let mut c = Cursor::new(text.as_bytes());
            c.uint().map(|n| (n, c.rest().len()))
        };
        assert_eq!(read("0"), Some((0, 0)));
        assert_eq!(read("7,"), Some((7, 1)));
        assert_eq!(
            read("9999999999999999999"),
            Some((9_999_999_999_999_999_999, 0))
        );
        for refused in ["", "-1", "01", "00", "10000000000000000000", "x"] {
            assert_eq!(read(refused), None, "{refused}");
        }
        let int = |text: &str| Cursor::new(text.as_bytes()).int();
        assert_eq!(int("-0"), Some(0));
        assert_eq!(int(&i64::MIN.to_string()), Some(i64::MIN));
        assert_eq!(int(&i64::MAX.to_string()), Some(i64::MAX));
        assert_eq!(int("9223372036854775808"), None);
        assert_eq!(int("-9223372036854775809"), None);
    }

    /// A line of one plain integer, `{"n":N}`: the walk's record.
    fn walk(c: &mut Cursor<'_>) -> Option<u64> {
        let n = c.num(b"{\"n\":")?;
        c.lit(b"}").map(|()| n)
    }

    /// Any other reading of such a line, by `str::parse`.
    fn read(line: Result<&str, String>, number: usize) -> Result<u64, (usize, String)> {
        let line = line.map_err(|why| (number, why))?;
        let digits = line
            .trim()
            .strip_prefix("{\"n\":")
            .and_then(|l| l.strip_suffix('}'));
        let n = digits.and_then(|d| d.trim().parse().ok());
        n.ok_or_else(|| (number, format!("not a number: {line:?}")))
    }

    /// What [`records`] must answer: each line read with `read_line`.
    fn by_read_line(mut text: &[u8]) -> Vec<Result<(usize, u64), (usize, String)>> {
        let (mut line, mut items) = (String::new(), Vec::new());
        for number in 1.. {
            line.clear();
            match text.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line.trim().is_empty() => {}
                Ok(_) => items.push(read(Ok(&line), number).map(|n| (number, n))),
                Err(e) => items.push(Err((number, e.to_string()))),
            }
        }
        items
    }

    #[test]
    fn records_read_as_read_line_reads_at_every_buffer_size() {
        let texts: [&[u8]; 6] = [
            b"{\"n\":1}\n{\"n\":22}\n",
            b"{\"n\":1}\r\n\n  \n{\"n\": 3}\n{\"n\":4}",
            b"{\"n\":1}\n{\"n\":x}\n{\"n\":05}\n{\"n\":99999999999999999999}\n",
            b"{\"n\":1}\n{\"n\":2\xff}\n{\"n\":3}\n",
            b"\n\n{\"n\":1}\n\xe2\x80",
            b"{\"n\":12345678901234567}\n\t\n",
        ];
        for text in texts {
            let want = by_read_line(text);
            assert_eq!(records(text, walk, read).collect::<Vec<_>>(), want);
            for cap in [1, 2, 7, 64] {
                let reader = BufReader::with_capacity(cap, text);
                let got: Vec<_> = records(reader, walk, read).collect();
                assert_eq!(got, want, "{cap}: {}", String::from_utf8_lossy(text));
            }
        }
    }
}

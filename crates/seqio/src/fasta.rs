//! Minimal FASTA reading/writing for the examples and tools.
//!
//! Supports multi-line records, comments, and lowercase bases. This is not a
//! general-purpose bioinformatics parser — just enough to feed read pairs in
//! and out of the pipeline in a standard format.

use std::io::{self, BufRead, Write};

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Header line without the leading `>`.
    pub name: String,
    /// Sequence bytes (joined across lines, whitespace stripped).
    pub seq: Vec<u8>,
}

/// Parse all records from a reader. An error names the 1-based line it
/// stopped at (`line 3: ...`): data before the first header, or a line
/// that is not UTF-8.
pub fn read_fasta<R: BufRead>(reader: R) -> io::Result<Vec<Record>> {
    let mut records = Vec::new();
    let mut current: Option<Record> = None;
    for (idx, line) in reader.lines().enumerate() {
        let at_line = |e: &dyn std::fmt::Display| format!("line {}: {e}", idx + 1);
        let line = line.map_err(|e| io::Error::new(e.kind(), at_line(&e)))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(name) = line.strip_prefix('>') {
            if let Some(rec) = current.take() {
                records.push(rec);
            }
            current = Some(Record {
                name: name.trim().to_string(),
                seq: Vec::new(),
            });
        } else {
            match current.as_mut() {
                Some(rec) => rec
                    .seq
                    .extend(line.bytes().filter(|b| !b.is_ascii_whitespace())),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        at_line(&"sequence data before the first FASTA header"),
                    ))
                }
            }
        }
    }
    if let Some(rec) = current {
        records.push(rec);
    }
    Ok(records)
}

/// Parse records from an in-memory string.
pub fn parse_fasta(text: &str) -> io::Result<Vec<Record>> {
    read_fasta(io::BufReader::new(text.as_bytes()))
}

/// Write records, wrapping sequences at `width` columns (0 = no wrap).
pub fn write_fasta<W: Write>(mut writer: W, records: &[Record], width: usize) -> io::Result<()> {
    for rec in records {
        writeln!(writer, ">{}", rec.name)?;
        if width == 0 {
            writer.write_all(&rec.seq)?;
            writeln!(writer)?;
        } else {
            for chunk in rec.seq.chunks(width) {
                writer.write_all(chunk)?;
                writeln!(writer)?;
            }
        }
    }
    Ok(())
}

/// Render records to a string.
pub fn format_fasta(records: &[Record], width: usize) -> String {
    let mut buf = Vec::new();
    write_fasta(&mut buf, records, width).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("FASTA output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let recs = parse_fasta(">r1\nACGT\n>r2 description\nAC\nGT\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "r1");
        assert_eq!(recs[0].seq, b"ACGT");
        assert_eq!(recs[1].name, "r2 description");
        assert_eq!(recs[1].seq, b"ACGT");
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let recs = parse_fasta("; a comment\n\n>r\nAC\n\nGT\n").unwrap();
        assert_eq!(recs[0].seq, b"ACGT");
    }

    #[test]
    fn rejects_headerless_data() {
        let e = parse_fasta("; comment\n\nACGT\n>r\nAC\n").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            e.to_string(),
            "line 3: sequence data before the first FASTA header"
        );
    }

    #[test]
    fn non_utf8_error_names_its_line() {
        let e = read_fasta(&b">r\nAC\nA\xffT\n"[..]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().starts_with("line 3: "), "{e}");
    }

    #[test]
    fn roundtrip_with_wrapping() {
        let recs = vec![Record {
            name: "long".into(),
            seq: vec![b'A'; 100],
        }];
        let text = format_fasta(&recs, 60);
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_fasta(&text).unwrap();
        assert_eq!(parsed, recs);
    }

    #[test]
    fn empty_input() {
        assert!(parse_fasta("").unwrap().is_empty());
    }
}

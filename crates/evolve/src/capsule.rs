//! Versioned state capsules with a deterministic byte encoding.
//!
//! A [`Capsule`] is an ordered list of named, typed fields plus a kind
//! string and a schema version. The byte encoding is fully determined by
//! the capsule's contents — no maps, no pointers, floats as IEEE-754
//! bits — so two captures of the same state are byte-identical and a
//! capsule fingerprint is meaningful across processes.

/// A typed capsule field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 32-bit unsigned integer.
    U32(u32),
    /// A 64-bit unsigned integer.
    U64(u64),
    /// A 64-bit float (encoded via its IEEE-754 bits).
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// A float vector.
    F64s(Vec<f64>),
    /// A jagged float table (e.g. per-bucket histories).
    F64Table(Vec<Vec<f64>>),
    /// Named floats in a deterministic order (e.g. per-policy scores).
    NamedF64s(Vec<(String, f64)>),
}

impl Value {
    /// The wire-type name of this value, as used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::U32(_) => "u32",
            Value::U64(_) => "u64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::F64s(_) => "f64s",
            Value::F64Table(_) => "f64-table",
            Value::NamedF64s(_) => "named-f64s",
        }
    }
}

/// Why a capsule could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CapsuleError {
    /// The capsule's kind does not match the resuming component.
    KindMismatch {
        /// Kind the component expected.
        expected: String,
        /// Kind the capsule carries.
        got: String,
    },
    /// A required field is absent.
    MissingField(String),
    /// A field exists but holds a different type.
    WrongType {
        /// Field name.
        field: String,
        /// Type the reader expected.
        expected: &'static str,
    },
    /// A field value is present but semantically unusable (e.g. an
    /// unknown policy name).
    BadValue(String),
    /// The byte stream ended early.
    Truncated,
    /// The byte stream does not start with the capsule magic.
    BadMagic,
    /// The byte stream uses an encoding format this build cannot read.
    UnsupportedFormat(u16),
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// Bytes remain after a complete capsule was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CapsuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapsuleError::KindMismatch { expected, got } => {
                write!(f, "capsule kind mismatch: expected {expected}, got {got}")
            }
            CapsuleError::MissingField(name) => write!(f, "capsule field missing: {name}"),
            CapsuleError::WrongType { field, expected } => {
                write!(f, "capsule field {field} is not a {expected}")
            }
            CapsuleError::BadValue(why) => write!(f, "capsule value rejected: {why}"),
            CapsuleError::Truncated => write!(f, "capsule bytes truncated"),
            CapsuleError::BadMagic => write!(f, "not a capsule (bad magic)"),
            CapsuleError::UnsupportedFormat(v) => write!(f, "unsupported capsule format {v}"),
            CapsuleError::BadUtf8 => write!(f, "capsule string is not UTF-8"),
            CapsuleError::TrailingBytes(n) => write!(f, "{n} trailing bytes after capsule"),
        }
    }
}

impl std::error::Error for CapsuleError {}

const MAGIC: &[u8; 4] = b"ACAP";
const FORMAT: u16 = 1;

/// A versioned snapshot of one component's state.
///
/// Fields keep insertion order — the order is part of the byte encoding,
/// so capture implementations must always push fields in the same
/// sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Capsule {
    /// Component-implementation identifier (e.g. `"autoscaler.hist"`).
    pub kind: String,
    /// Schema version of the field layout.
    pub version: u32,
    fields: Vec<(String, Value)>,
}

impl Capsule {
    /// Creates an empty capsule of the given kind and schema version.
    pub fn new(kind: &str, version: u32) -> Self {
        Capsule {
            kind: kind.to_string(),
            version,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn with(mut self, name: &str, value: Value) -> Self {
        self.push(name, value);
        self
    }

    /// Appends a u32 field (builder style).
    pub fn with_u32(self, name: &str, v: u32) -> Self {
        self.with(name, Value::U32(v))
    }

    /// Appends a u64 field (builder style).
    pub fn with_u64(self, name: &str, v: u64) -> Self {
        self.with(name, Value::U64(v))
    }

    /// Appends an f64 field (builder style).
    pub fn with_f64(self, name: &str, v: f64) -> Self {
        self.with(name, Value::F64(v))
    }

    /// Appends a string field (builder style).
    pub fn with_str(self, name: &str, v: &str) -> Self {
        self.with(name, Value::Str(v.to_string()))
    }

    /// Appends a field.
    pub fn push(&mut self, name: &str, value: Value) {
        debug_assert!(self.get(name).is_none(), "duplicate capsule field {name:?}");
        self.fields.push((name.to_string(), value));
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Replaces a field's value in place, keeping its position (the
    /// transform primitive). Appends if the field does not exist.
    pub fn set(&mut self, name: &str, value: Value) {
        match self.fields.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.fields.push((name.to_string(), value)),
        }
    }

    /// All fields in encoding order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Errors unless the capsule kind matches `expected`.
    pub fn expect_kind(&self, expected: &str) -> Result<(), CapsuleError> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(CapsuleError::KindMismatch {
                expected: expected.to_string(),
                got: self.kind.clone(),
            })
        }
    }

    fn field(&self, name: &str) -> Result<&Value, CapsuleError> {
        self.get(name)
            .ok_or_else(|| CapsuleError::MissingField(name.to_string()))
    }

    fn wrong(&self, name: &str, expected: &'static str) -> CapsuleError {
        CapsuleError::WrongType {
            field: name.to_string(),
            expected,
        }
    }

    /// Reads a u32 field.
    pub fn u32_field(&self, name: &str) -> Result<u32, CapsuleError> {
        match self.field(name)? {
            Value::U32(v) => Ok(*v),
            _ => Err(self.wrong(name, "u32")),
        }
    }

    /// Reads a u64 field.
    pub fn u64_field(&self, name: &str) -> Result<u64, CapsuleError> {
        match self.field(name)? {
            Value::U64(v) => Ok(*v),
            _ => Err(self.wrong(name, "u64")),
        }
    }

    /// Reads an f64 field.
    pub fn f64_field(&self, name: &str) -> Result<f64, CapsuleError> {
        match self.field(name)? {
            Value::F64(v) => Ok(*v),
            _ => Err(self.wrong(name, "f64")),
        }
    }

    /// Reads a string field.
    pub fn str_field(&self, name: &str) -> Result<&str, CapsuleError> {
        match self.field(name)? {
            Value::Str(v) => Ok(v),
            _ => Err(self.wrong(name, "str")),
        }
    }

    /// Reads a float-vector field.
    pub fn f64s_field(&self, name: &str) -> Result<&[f64], CapsuleError> {
        match self.field(name)? {
            Value::F64s(v) => Ok(v),
            _ => Err(self.wrong(name, "f64s")),
        }
    }

    /// Reads a float-table field.
    pub fn f64_table_field(&self, name: &str) -> Result<&[Vec<f64>], CapsuleError> {
        match self.field(name)? {
            Value::F64Table(v) => Ok(v),
            _ => Err(self.wrong(name, "f64-table")),
        }
    }

    /// Reads a named-floats field.
    pub fn named_f64s_field(&self, name: &str) -> Result<&[(String, f64)], CapsuleError> {
        match self.field(name)? {
            Value::NamedF64s(v) => Ok(v),
            _ => Err(self.wrong(name, "named-f64s")),
        }
    }

    /// Encodes the capsule into its canonical byte form. Deterministic:
    /// equal capsules encode to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT.to_le_bytes());
        write_str16(&mut out, &self.kind);
        out.extend_from_slice(&self.version.to_le_bytes());
        let count = u16::try_from(self.fields.len()).expect("fewer than 65536 capsule fields");
        out.extend_from_slice(&count.to_le_bytes());
        for (name, value) in &self.fields {
            write_str16(&mut out, name);
            match value {
                Value::U32(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::U64(v) => {
                    out.push(2);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Value::F64(v) => {
                    out.push(3);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                Value::Str(v) => {
                    out.push(4);
                    write_str32(&mut out, v);
                }
                Value::F64s(v) => {
                    out.push(5);
                    write_f64s(&mut out, v);
                }
                Value::F64Table(rows) => {
                    out.push(6);
                    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                    for row in rows {
                        write_f64s(&mut out, row);
                    }
                }
                Value::NamedF64s(entries) => {
                    out.push(7);
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for (n, v) in entries {
                        write_str16(&mut out, n);
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Decodes a capsule from its canonical byte form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Capsule, CapsuleError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(CapsuleError::BadMagic);
        }
        let format = r.u16()?;
        if format != FORMAT {
            return Err(CapsuleError::UnsupportedFormat(format));
        }
        let kind = r.str16()?;
        let version = r.u32()?;
        let count = r.u16()?;
        // A field is at least a name length and a tag.
        let mut fields = r.vec_for(usize::from(count), 3);
        for _ in 0..count {
            let name = r.str16()?;
            let tag = r.u8()?;
            let value = match tag {
                1 => Value::U32(r.u32()?),
                2 => Value::U64(r.u64()?),
                3 => Value::F64(f64::from_bits(r.u64()?)),
                4 => Value::Str(r.str32()?),
                5 => Value::F64s(r.f64s()?),
                6 => {
                    let rows = r.u32()? as usize;
                    // A row is at least its length prefix.
                    let mut table = r.vec_for(rows, 4);
                    for _ in 0..rows {
                        table.push(r.f64s()?);
                    }
                    Value::F64Table(table)
                }
                7 => {
                    let n = r.u32()? as usize;
                    // An entry is at least a name length and a value.
                    let mut entries = r.vec_for(n, 10);
                    for _ in 0..n {
                        let name = r.str16()?;
                        entries.push((name, f64::from_bits(r.u64()?)));
                    }
                    Value::NamedF64s(entries)
                }
                _ => return Err(CapsuleError::BadValue(format!("unknown field tag {tag}"))),
            };
            fields.push((name, value));
        }
        if r.pos != bytes.len() {
            return Err(CapsuleError::TrailingBytes(bytes.len() - r.pos));
        }
        Ok(Capsule {
            kind,
            version,
            fields,
        })
    }
}

fn write_str16(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("capsule strings under 64 KiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn write_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// An empty vector with room for `n` items of at least `min_bytes`
    /// encoded bytes each, capped by the bytes left to read, so a forged
    /// length cannot force a huge allocation.
    fn vec_for<T>(&self, n: usize, min_bytes: usize) -> Vec<T> {
        Vec::with_capacity(n.min((self.bytes.len() - self.pos) / min_bytes))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CapsuleError> {
        let end = self.pos.checked_add(n).ok_or(CapsuleError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CapsuleError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CapsuleError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CapsuleError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, CapsuleError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CapsuleError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str16(&mut self) -> Result<String, CapsuleError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CapsuleError::BadUtf8)
    }

    fn str32(&mut self) -> Result<String, CapsuleError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CapsuleError::BadUtf8)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CapsuleError> {
        let n = self.u32()? as usize;
        let mut v = self.vec_for(n, 8);
        for _ in 0..n {
            v.push(f64::from_bits(self.u64()?));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_capsule() -> Capsule {
        Capsule::new("test.kitchen-sink", 3)
            .with_u32("a", 7)
            .with_u64("b", u64::MAX - 1)
            .with_f64("c", -0.0)
            .with_str("d", "héllo")
            .with("e", Value::F64s(vec![1.5, f64::NEG_INFINITY, 3.25]))
            .with(
                "f",
                Value::F64Table(vec![vec![], vec![2.0, 4.0], vec![8.0]]),
            )
            .with(
                "g",
                Value::NamedF64s(vec![("sjf".into(), 1.25), ("fcfs".into(), 9.0)]),
            )
    }

    #[test]
    fn round_trips_every_value_type() {
        let c = full_capsule();
        let decoded = Capsule::from_bytes(&c.to_bytes()).expect("decodes");
        assert_eq!(c, decoded);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(full_capsule().to_bytes(), full_capsule().to_bytes());
    }

    #[test]
    fn negative_zero_and_infinities_survive_bit_exact() {
        let c = Capsule::new("t", 1)
            .with_f64("nz", -0.0)
            .with_f64("inf", f64::INFINITY);
        let d = Capsule::from_bytes(&c.to_bytes()).unwrap();
        assert!(d.f64_field("nz").unwrap().is_sign_negative());
        assert_eq!(d.f64_field("inf").unwrap(), f64::INFINITY);
    }

    #[test]
    fn typed_getters_enforce_types() {
        let c = Capsule::new("t", 1).with_u32("x", 5);
        assert_eq!(c.u32_field("x"), Ok(5));
        assert_eq!(
            c.f64_field("x"),
            Err(CapsuleError::WrongType {
                field: "x".into(),
                expected: "f64"
            })
        );
        assert_eq!(
            c.u32_field("missing"),
            Err(CapsuleError::MissingField("missing".into()))
        );
    }

    #[test]
    fn expect_kind_gates_resume() {
        let c = Capsule::new("autoscaler.react", 1);
        assert!(c.expect_kind("autoscaler.react").is_ok());
        let err = c.expect_kind("autoscaler.token").unwrap_err();
        assert!(matches!(err, CapsuleError::KindMismatch { .. }));
    }

    #[test]
    fn set_rewrites_in_place_preserving_order() {
        let mut c = Capsule::new("t", 1).with_f64("a", 1.0).with_f64("b", 2.0);
        c.set("a", Value::F64(10.0));
        assert_eq!(c.f64_field("a"), Ok(10.0));
        assert_eq!(c.fields()[0].0, "a");
        c.set("new", Value::U32(1));
        assert_eq!(c.fields().len(), 3);
    }

    #[test]
    fn truncated_bytes_rejected() {
        let bytes = full_capsule().to_bytes();
        for cut in [0, 3, 5, 9, bytes.len() - 1] {
            assert!(
                matches!(
                    Capsule::from_bytes(&bytes[..cut]),
                    Err(CapsuleError::Truncated) | Err(CapsuleError::BadMagic)
                ),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = full_capsule().to_bytes();
        bytes.push(0);
        assert_eq!(
            Capsule::from_bytes(&bytes),
            Err(CapsuleError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_magic_and_format_rejected() {
        assert_eq!(Capsule::from_bytes(b"NOP"), Err(CapsuleError::Truncated));
        assert_eq!(Capsule::from_bytes(b"NOPE"), Err(CapsuleError::BadMagic));
        assert_eq!(
            Capsule::from_bytes(b"NOPExxxx"),
            Err(CapsuleError::BadMagic)
        );
        let mut bytes = Capsule::new("t", 1).to_bytes();
        bytes[4] = 0xFF; // corrupt the format word
        assert!(matches!(
            Capsule::from_bytes(&bytes),
            Err(CapsuleError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn forged_table_length_is_a_typed_error() {
        // 26 bytes: kind "test", one field "t" with tag 6 (f64 table)
        // claiming u32::MAX rows and holding none.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT.to_le_bytes());
        write_str16(&mut bytes, "test");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        write_str16(&mut bytes, "t");
        bytes.push(6);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 26);
        assert_eq!(Capsule::from_bytes(&bytes), Err(CapsuleError::Truncated));
        // The same forged count on a named-floats field (tag 7).
        bytes[21] = 7;
        assert_eq!(Capsule::from_bytes(&bytes), Err(CapsuleError::Truncated));
    }
}

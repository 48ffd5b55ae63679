//! A compact, self-contained binary codec for repository snapshots.
//!
//! Hand-rolled (no external serialization format is available in the
//! dependency budget): length-prefixed, little-endian, with one-byte tags
//! for enums. Every encodable type has a matching decoder; round-trip
//! property tests live at the bottom of the module.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mm_expr::{
    AggFunc, AggSpec, Atom, CmpOp, Correspondence, CorrespondenceSet, Expr, Func, Lit, Mapping,
    MappingConstraint, PathRef, Predicate, Scalar, SoClause, SoTgd, Term, Tgd, ViewDef,
    ViewSet,
};
use mm_instance::{Database, RelSchema, Relation, Tuple, Value};
use mm_metamodel::{
    Attribute, Cardinality, Constraint, DataType, Element, ElementKind, ForeignKey,
    InclusionDependency, Key, Schema,
};
use std::fmt;

/// Decoding error: the snapshot is truncated or contains an unknown tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub type DecodeResult<T> = Result<T, DecodeError>;

/// CRC32 (IEEE 802.3, reflected) slicing-by-16 tables, built at compile
/// time. Row 0 is the classic bytewise table; row `k` is the CRC of a
/// byte followed by `k` zero bytes, so one step can fold 16 input bytes
/// with 16 independent lookups.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut row = 1;
    while row < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[row - 1][i];
            t[row][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        row += 1;
    }
    t
};

/// CRC32 (IEEE) checksum — guards every wire frame, WAL frame and
/// snapshot body against torn writes and bit rot. Slicing-by-16:
/// bit-identical to the bytewise table walk (the test oracle below), so
/// every checksum ever written still verifies. Hand-rolled because no
/// checksum crate is in the dependency budget.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut c = 0xFFFF_FFFFu32;
    for b in blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Byte writer.
pub struct Writer {
    buf: BytesMut,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: BytesMut::with_capacity(4096) }
    }

    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            f(self, it);
        }
    }
}

/// Byte reader.
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> DecodeResult<()> {
        if self.buf.remaining() < n {
            Err(DecodeError(format!("truncated: need {n}, have {}", self.buf.remaining())))
        } else {
            Ok(())
        }
    }

    pub fn u8(&mut self) -> DecodeResult<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn u32(&mut self) -> DecodeResult<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn u64(&mut self) -> DecodeResult<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn i64(&mut self) -> DecodeResult<i64> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    pub fn i32(&mut self) -> DecodeResult<i32> {
        self.need(4)?;
        Ok(self.buf.get_i32_le())
    }

    pub fn f64(&mut self) -> DecodeResult<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn bool(&mut self) -> DecodeResult<bool> {
        Ok(self.u8()? != 0)
    }

    pub fn str(&mut self) -> DecodeResult<String> {
        self.with_str(str::to_owned)
    }

    /// Read a length-prefixed string and hand it to `f` borrowed from the
    /// buffer: UTF-8 is validated in place and nothing is copied unless
    /// `f` copies it (the text-value decoder interns straight from the
    /// borrow). The length prefix goes through the same bound as `seq`,
    /// so an adversarial prefix errors before any work is done.
    pub fn with_str<T>(&mut self, f: impl FnOnce(&str) -> T) -> DecodeResult<T> {
        let n = self.seq_len()?;
        let out = match std::str::from_utf8(&self.buf[..n]) {
            Ok(s) => f(s),
            Err(e) => return Err(DecodeError(e.to_string())),
        };
        self.buf.advance(n);
        Ok(out)
    }

    /// Read a `u32` length prefix, bounded by the remaining buffer —
    /// element encodings take at least one byte, so any honest length
    /// fits. Every decoder that pre-allocates from a length prefix goes
    /// through this, capping `Vec::with_capacity` at the buffer size.
    pub fn seq_len(&mut self) -> DecodeResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.remaining() {
            return Err(DecodeError(format!(
                "length {n} exceeds remaining buffer ({})",
                self.buf.remaining()
            )));
        }
        Ok(n)
    }

    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> DecodeResult<T>) -> DecodeResult<Vec<T>> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// Types encodable into a snapshot.
pub trait Encode {
    fn encode(&self, w: &mut Writer);
}

/// Types decodable from a snapshot.
pub trait Decode: Sized {
    fn decode(r: &mut Reader) -> DecodeResult<Self>;
}

fn bad_tag(what: &str, tag: u8) -> DecodeError {
    DecodeError(format!("unknown {what} tag {tag}"))
}

// --- metamodel ------------------------------------------------------------

impl Encode for DataType {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Bool => 2,
            DataType::Text => 3,
            DataType::Date => 4,
            DataType::Any => 5,
        });
    }
}

impl Decode for DataType {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Double,
            2 => DataType::Bool,
            3 => DataType::Text,
            4 => DataType::Date,
            5 => DataType::Any,
            t => return Err(bad_tag("DataType", t)),
        })
    }
}

impl Encode for Attribute {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        self.ty.encode(w);
        w.bool(self.nullable);
    }
}

impl Decode for Attribute {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Attribute {
            name: r.str()?,
            ty: DataType::decode(r)?,
            nullable: r.bool()?,
        })
    }
}

impl Encode for Cardinality {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Cardinality::One => 0,
            Cardinality::ZeroOrOne => 1,
            Cardinality::Many => 2,
        });
    }
}

impl Decode for Cardinality {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Cardinality::One,
            1 => Cardinality::ZeroOrOne,
            2 => Cardinality::Many,
            t => return Err(bad_tag("Cardinality", t)),
        })
    }
}

impl Encode for ElementKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            ElementKind::Relation => w.u8(0),
            ElementKind::EntityType { parent } => {
                w.u8(1);
                match parent {
                    Some(p) => {
                        w.bool(true);
                        w.str(p);
                    }
                    None => w.bool(false),
                }
            }
            ElementKind::Association { from, to, from_card, to_card } => {
                w.u8(2);
                w.str(from);
                w.str(to);
                from_card.encode(w);
                to_card.encode(w);
            }
            ElementKind::Nested { parent } => {
                w.u8(3);
                w.str(parent);
            }
        }
    }
}

impl Decode for ElementKind {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => ElementKind::Relation,
            1 => {
                let parent = if r.bool()? { Some(r.str()?) } else { None };
                ElementKind::EntityType { parent }
            }
            2 => ElementKind::Association {
                from: r.str()?,
                to: r.str()?,
                from_card: Cardinality::decode(r)?,
                to_card: Cardinality::decode(r)?,
            },
            3 => ElementKind::Nested { parent: r.str()? },
            t => return Err(bad_tag("ElementKind", t)),
        })
    }
}

impl Encode for Constraint {
    fn encode(&self, w: &mut Writer) {
        match self {
            Constraint::Key(k) => {
                w.u8(0);
                w.str(&k.element);
                w.seq(&k.attributes, |w, a| w.str(a));
            }
            Constraint::ForeignKey(fk) => {
                w.u8(1);
                w.str(&fk.from);
                w.seq(&fk.from_attrs, |w, a| w.str(a));
                w.str(&fk.to);
                w.seq(&fk.to_attrs, |w, a| w.str(a));
            }
            Constraint::Inclusion(i) => {
                w.u8(2);
                w.str(&i.from);
                w.seq(&i.from_attrs, |w, a| w.str(a));
                w.str(&i.to);
                w.seq(&i.to_attrs, |w, a| w.str(a));
            }
            Constraint::Disjoint { left, right } => {
                w.u8(3);
                w.str(left);
                w.str(right);
            }
            Constraint::Covering { parent, children } => {
                w.u8(4);
                w.str(parent);
                w.seq(children, |w, c| w.str(c));
            }
            Constraint::NotNull { element, attribute } => {
                w.u8(5);
                w.str(element);
                w.str(attribute);
            }
        }
    }
}

impl Decode for Constraint {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Constraint::Key(Key {
                element: r.str()?,
                attributes: r.seq(Reader::str)?,
            }),
            1 => Constraint::ForeignKey(ForeignKey {
                from: r.str()?,
                from_attrs: r.seq(Reader::str)?,
                to: r.str()?,
                to_attrs: r.seq(Reader::str)?,
            }),
            2 => Constraint::Inclusion(InclusionDependency {
                from: r.str()?,
                from_attrs: r.seq(Reader::str)?,
                to: r.str()?,
                to_attrs: r.seq(Reader::str)?,
            }),
            3 => Constraint::Disjoint { left: r.str()?, right: r.str()? },
            4 => Constraint::Covering {
                parent: r.str()?,
                children: r.seq(Reader::str)?,
            },
            5 => Constraint::NotNull { element: r.str()?, attribute: r.str()? },
            t => return Err(bad_tag("Constraint", t)),
        })
    }
}

impl Encode for Schema {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        let elements: Vec<&Element> = self.elements().collect();
        w.u32(elements.len() as u32);
        for e in elements {
            w.str(&e.name);
            e.kind.encode(w);
            w.seq(&e.attributes, |w, a| a.encode(w));
        }
        w.seq(&self.constraints, |w, c| c.encode(w));
    }
}

impl Decode for Schema {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let name = r.str()?;
        let mut schema = Schema::new(name);
        let n = r.u32()? as usize;
        for _ in 0..n {
            let name = r.str()?;
            let kind = ElementKind::decode(r)?;
            let attributes = r.seq(Attribute::decode)?;
            schema
                .add_element(Element { name, kind, attributes })
                .map_err(|e| DecodeError(e.to_string()))?;
        }
        for c in r.seq(Constraint::decode)? {
            schema.add_constraint(c).map_err(|e| DecodeError(e.to_string()))?;
        }
        Ok(schema)
    }
}

// --- expressions -----------------------------------------------------------

impl Encode for Lit {
    fn encode(&self, w: &mut Writer) {
        match self {
            Lit::Int(v) => {
                w.u8(0);
                w.i64(*v);
            }
            Lit::Double(v) => {
                w.u8(1);
                w.f64(*v);
            }
            Lit::Bool(v) => {
                w.u8(2);
                w.bool(*v);
            }
            Lit::Text(v) => {
                w.u8(3);
                w.str(v);
            }
            Lit::Date(v) => {
                w.u8(4);
                w.i32(*v);
            }
            Lit::Null => w.u8(5),
        }
    }
}

impl Decode for Lit {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Lit::Int(r.i64()?),
            1 => Lit::Double(r.f64()?),
            2 => Lit::Bool(r.bool()?),
            3 => Lit::Text(r.str()?),
            4 => Lit::Date(r.i32()?),
            5 => Lit::Null,
            t => return Err(bad_tag("Lit", t)),
        })
    }
}

impl Encode for Func {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Func::Concat => 0,
            Func::Add => 1,
            Func::Sub => 2,
            Func::Mul => 3,
            Func::Coalesce => 4,
            Func::Upper => 5,
            Func::Lower => 6,
        });
    }
}

impl Decode for Func {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Func::Concat,
            1 => Func::Add,
            2 => Func::Sub,
            3 => Func::Mul,
            4 => Func::Coalesce,
            5 => Func::Upper,
            6 => Func::Lower,
            t => return Err(bad_tag("Func", t)),
        })
    }
}

impl Encode for CmpOp {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
}

impl Decode for CmpOp {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            t => return Err(bad_tag("CmpOp", t)),
        })
    }
}

impl Encode for Scalar {
    fn encode(&self, w: &mut Writer) {
        match self {
            Scalar::Col(c) => {
                w.u8(0);
                w.str(c);
            }
            Scalar::Lit(l) => {
                w.u8(1);
                l.encode(w);
            }
            Scalar::Func(f, args) => {
                w.u8(2);
                f.encode(w);
                w.seq(args, |w, a| a.encode(w));
            }
            Scalar::Case { branches, otherwise } => {
                w.u8(3);
                w.u32(branches.len() as u32);
                for (p, s) in branches {
                    p.encode(w);
                    s.encode(w);
                }
                otherwise.encode(w);
            }
        }
    }
}

impl Decode for Scalar {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Scalar::Col(r.str()?),
            1 => Scalar::Lit(Lit::decode(r)?),
            2 => Scalar::Func(Func::decode(r)?, r.seq(Scalar::decode)?),
            3 => {
                let n = r.seq_len()?;
                let mut branches = Vec::with_capacity(n);
                for _ in 0..n {
                    branches.push((Predicate::decode(r)?, Scalar::decode(r)?));
                }
                Scalar::Case { branches, otherwise: Box::new(Scalar::decode(r)?) }
            }
            t => return Err(bad_tag("Scalar", t)),
        })
    }
}

impl Encode for Predicate {
    fn encode(&self, w: &mut Writer) {
        match self {
            Predicate::Cmp { op, left, right } => {
                w.u8(0);
                op.encode(w);
                left.encode(w);
                right.encode(w);
            }
            Predicate::And(a, b) => {
                w.u8(1);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Or(a, b) => {
                w.u8(2);
                a.encode(w);
                b.encode(w);
            }
            Predicate::Not(p) => {
                w.u8(3);
                p.encode(w);
            }
            Predicate::IsNull(s) => {
                w.u8(4);
                s.encode(w);
            }
            Predicate::IsOf { ty, only } => {
                w.u8(5);
                w.str(ty);
                w.bool(*only);
            }
            Predicate::True => w.u8(6),
            Predicate::False => w.u8(7),
        }
    }
}

impl Decode for Predicate {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Predicate::Cmp {
                op: CmpOp::decode(r)?,
                left: Scalar::decode(r)?,
                right: Scalar::decode(r)?,
            },
            1 => Predicate::And(Box::new(Predicate::decode(r)?), Box::new(Predicate::decode(r)?)),
            2 => Predicate::Or(Box::new(Predicate::decode(r)?), Box::new(Predicate::decode(r)?)),
            3 => Predicate::Not(Box::new(Predicate::decode(r)?)),
            4 => Predicate::IsNull(Scalar::decode(r)?),
            5 => Predicate::IsOf { ty: r.str()?, only: r.bool()? },
            6 => Predicate::True,
            7 => Predicate::False,
            t => return Err(bad_tag("Predicate", t)),
        })
    }
}

fn encode_pairs(w: &mut Writer, pairs: &[(String, String)]) {
    w.u32(pairs.len() as u32);
    for (a, b) in pairs {
        w.str(a);
        w.str(b);
    }
}

fn decode_pairs(r: &mut Reader) -> DecodeResult<Vec<(String, String)>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.str()?, r.str()?));
    }
    Ok(out)
}

impl Encode for Expr {
    fn encode(&self, w: &mut Writer) {
        match self {
            Expr::Base(n) => {
                w.u8(0);
                w.str(n);
            }
            Expr::Literal { columns, rows } => {
                w.u8(1);
                w.seq(columns, |w, c| w.str(c));
                w.u32(rows.len() as u32);
                for row in rows {
                    w.seq(row, |w, l| l.encode(w));
                }
            }
            Expr::Project { input, columns } => {
                w.u8(2);
                input.encode(w);
                w.seq(columns, |w, c| w.str(c));
            }
            Expr::Select { input, predicate } => {
                w.u8(3);
                input.encode(w);
                predicate.encode(w);
            }
            Expr::Join { left, right, on } => {
                w.u8(4);
                left.encode(w);
                right.encode(w);
                encode_pairs(w, on);
            }
            Expr::LeftJoin { left, right, on } => {
                w.u8(5);
                left.encode(w);
                right.encode(w);
                encode_pairs(w, on);
            }
            Expr::Product { left, right } => {
                w.u8(6);
                left.encode(w);
                right.encode(w);
            }
            Expr::Union { left, right, all } => {
                w.u8(7);
                left.encode(w);
                right.encode(w);
                w.bool(*all);
            }
            Expr::Diff { left, right } => {
                w.u8(8);
                left.encode(w);
                right.encode(w);
            }
            Expr::Rename { input, renames } => {
                w.u8(9);
                input.encode(w);
                encode_pairs(w, renames);
            }
            Expr::Extend { input, column, scalar } => {
                w.u8(10);
                input.encode(w);
                w.str(column);
                scalar.encode(w);
            }
            Expr::Distinct { input } => {
                w.u8(11);
                input.encode(w);
            }
            Expr::Aggregate { input, group_by, aggregates } => {
                w.u8(12);
                input.encode(w);
                w.seq(group_by, |w, g| w.str(g));
                w.u32(aggregates.len() as u32);
                for a in aggregates {
                    w.u8(match a.func {
                        AggFunc::Count => 0,
                        AggFunc::Sum => 1,
                        AggFunc::Min => 2,
                        AggFunc::Max => 3,
                        AggFunc::Avg => 4,
                    });
                    match &a.column {
                        Some(c) => {
                            w.bool(true);
                            w.str(c);
                        }
                        None => w.bool(false),
                    }
                    w.str(&a.output);
                }
            }
        }
    }
}

impl Decode for Expr {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Expr::Base(r.str()?),
            1 => {
                let columns = r.seq(Reader::str)?;
                let n = r.seq_len()?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(r.seq(Lit::decode)?);
                }
                Expr::Literal { columns, rows }
            }
            2 => Expr::Project {
                input: Box::new(Expr::decode(r)?),
                columns: r.seq(Reader::str)?,
            },
            3 => Expr::Select {
                input: Box::new(Expr::decode(r)?),
                predicate: Predicate::decode(r)?,
            },
            4 => Expr::Join {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                on: decode_pairs(r)?,
            },
            5 => Expr::LeftJoin {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                on: decode_pairs(r)?,
            },
            6 => Expr::Product {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
            },
            7 => Expr::Union {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
                all: r.bool()?,
            },
            8 => Expr::Diff {
                left: Box::new(Expr::decode(r)?),
                right: Box::new(Expr::decode(r)?),
            },
            9 => Expr::Rename {
                input: Box::new(Expr::decode(r)?),
                renames: decode_pairs(r)?,
            },
            10 => Expr::Extend {
                input: Box::new(Expr::decode(r)?),
                column: r.str()?,
                scalar: Scalar::decode(r)?,
            },
            11 => Expr::Distinct { input: Box::new(Expr::decode(r)?) },
            12 => {
                let input = Box::new(Expr::decode(r)?);
                let group_by = r.seq(Reader::str)?;
                let n = r.seq_len()?;
                let mut aggregates = Vec::with_capacity(n);
                for _ in 0..n {
                    let func = match r.u8()? {
                        0 => AggFunc::Count,
                        1 => AggFunc::Sum,
                        2 => AggFunc::Min,
                        3 => AggFunc::Max,
                        4 => AggFunc::Avg,
                        t => return Err(bad_tag("AggFunc", t)),
                    };
                    let column = if r.bool()? { Some(r.str()?) } else { None };
                    let output = r.str()?;
                    aggregates.push(AggSpec { func, column, output });
                }
                Expr::Aggregate { input, group_by, aggregates }
            }
            t => return Err(bad_tag("Expr", t)),
        })
    }
}

// --- logic ------------------------------------------------------------------

impl Encode for Term {
    fn encode(&self, w: &mut Writer) {
        match self {
            Term::Var(v) => {
                w.u8(0);
                w.str(v);
            }
            Term::Const(l) => {
                w.u8(1);
                l.encode(w);
            }
            Term::Func(f, args) => {
                w.u8(2);
                w.str(f);
                w.seq(args, |w, a| a.encode(w));
            }
        }
    }
}

impl Decode for Term {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Term::Var(r.str()?),
            1 => Term::Const(Lit::decode(r)?),
            2 => Term::Func(r.str()?, r.seq(Term::decode)?),
            t => return Err(bad_tag("Term", t)),
        })
    }
}

impl Encode for Atom {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.relation);
        w.seq(&self.terms, |w, t| t.encode(w));
    }
}

impl Decode for Atom {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Atom { relation: r.str()?, terms: r.seq(Term::decode)? })
    }
}

impl Encode for Tgd {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.body, |w, a| a.encode(w));
        w.seq(&self.head, |w, a| a.encode(w));
    }
}

impl Decode for Tgd {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Tgd { body: r.seq(Atom::decode)?, head: r.seq(Atom::decode)? })
    }
}

impl Encode for SoTgd {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.functions, |w, f| w.str(f));
        w.u32(self.clauses.len() as u32);
        for c in &self.clauses {
            w.seq(&c.body, |w, a| a.encode(w));
            w.u32(c.eqs.len() as u32);
            for (l, rr) in &c.eqs {
                l.encode(w);
                rr.encode(w);
            }
            w.seq(&c.head, |w, a| a.encode(w));
        }
    }
}

impl Decode for SoTgd {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let functions = r.seq(Reader::str)?;
        let n = r.seq_len()?;
        let mut clauses = Vec::with_capacity(n);
        for _ in 0..n {
            let body = r.seq(Atom::decode)?;
            let ne = r.seq_len()?;
            let mut eqs = Vec::with_capacity(ne);
            for _ in 0..ne {
                eqs.push((Term::decode(r)?, Term::decode(r)?));
            }
            let head = r.seq(Atom::decode)?;
            clauses.push(SoClause { body, eqs, head });
        }
        Ok(SoTgd { functions, clauses })
    }
}

// --- mappings ----------------------------------------------------------------

impl Encode for MappingConstraint {
    fn encode(&self, w: &mut Writer) {
        match self {
            MappingConstraint::Tgd(t) => {
                w.u8(0);
                t.encode(w);
            }
            MappingConstraint::SoTgd(t) => {
                w.u8(1);
                t.encode(w);
            }
            MappingConstraint::ExprEq { source, target } => {
                w.u8(2);
                source.encode(w);
                target.encode(w);
            }
        }
    }
}

impl Decode for MappingConstraint {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => MappingConstraint::Tgd(Tgd::decode(r)?),
            1 => MappingConstraint::SoTgd(SoTgd::decode(r)?),
            2 => MappingConstraint::ExprEq {
                source: Expr::decode(r)?,
                target: Expr::decode(r)?,
            },
            t => return Err(bad_tag("MappingConstraint", t)),
        })
    }
}

impl Encode for Mapping {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.source_schema);
        w.str(&self.target_schema);
        w.seq(&self.constraints, |w, c| c.encode(w));
    }
}

impl Decode for Mapping {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Mapping {
            source_schema: r.str()?,
            target_schema: r.str()?,
            constraints: r.seq(MappingConstraint::decode)?,
        })
    }
}

impl Encode for PathRef {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.element);
        match &self.attribute {
            Some(a) => {
                w.bool(true);
                w.str(a);
            }
            None => w.bool(false),
        }
    }
}

impl Decode for PathRef {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let element = r.str()?;
        let attribute = if r.bool()? { Some(r.str()?) } else { None };
        Ok(PathRef { element, attribute })
    }
}

impl Encode for Correspondence {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.target.encode(w);
        w.f64(self.confidence);
    }
}

impl Decode for Correspondence {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(Correspondence {
            source: PathRef::decode(r)?,
            target: PathRef::decode(r)?,
            confidence: r.f64()?,
        })
    }
}

impl Encode for CorrespondenceSet {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.source_schema);
        w.str(&self.target_schema);
        w.seq(&self.correspondences, |w, c| c.encode(w));
    }
}

impl Decode for CorrespondenceSet {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(CorrespondenceSet {
            source_schema: r.str()?,
            target_schema: r.str()?,
            correspondences: r.seq(Correspondence::decode)?,
        })
    }
}

impl Encode for ViewDef {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        self.expr.encode(w);
    }
}

impl Decode for ViewDef {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(ViewDef { name: r.str()?, expr: Expr::decode(r)? })
    }
}

impl Encode for ViewSet {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.base_schema);
        w.str(&self.view_schema);
        w.seq(&self.views, |w, v| v.encode(w));
    }
}

impl Decode for ViewSet {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(ViewSet {
            base_schema: r.str()?,
            view_schema: r.str()?,
            views: r.seq(ViewDef::decode)?,
        })
    }
}

// --- instances ---------------------------------------------------------------
//
// The instance codec lives here (rather than in the wire protocol) so the
// WAL can journal data deltas; `mm-server` reuses these impls for its
// frames, keeping the two byte formats identical by construction.

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Int(i) => {
                w.u8(0);
                w.i64(*i);
            }
            Value::Double(d) => {
                w.u8(1);
                w.f64(*d);
            }
            Value::Bool(b) => {
                w.u8(2);
                w.bool(*b);
            }
            // both text forms share tag 3: symbols encode straight from
            // the pool's `&'static str`, byte-identical to owned text
            Value::Text(s) => {
                w.u8(3);
                w.str(s);
            }
            Value::Sym(s) => {
                w.u8(3);
                w.str(s.as_str());
            }
            Value::Date(d) => {
                w.u8(4);
                w.i32(*d);
            }
            Value::Null => w.u8(5),
            Value::Labeled(id) => {
                w.u8(6);
                w.u64(*id);
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        Ok(match r.u8()? {
            0 => Value::Int(r.i64()?),
            1 => Value::Double(r.f64()?),
            2 => Value::Bool(r.bool()?),
            // interns on decode straight from the borrowed buffer
            // (bounded; oversized/overflow text is the only copy), so
            // recovered instances land warm in the pool
            3 => r.with_str(|s| Value::text(s))?,
            4 => Value::Date(r.i32()?),
            5 => Value::Null,
            6 => Value::Labeled(r.u64()?),
            t => return Err(bad_tag("Value", t)),
        })
    }
}

impl Encode for Tuple {
    fn encode(&self, w: &mut Writer) {
        w.seq(self.values(), |w, v| v.encode(w));
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let arity = r.seq_len()?;
        Tuple::try_from_fn(arity, |_| Value::decode(r))
    }
}

impl Encode for Relation {
    fn encode(&self, w: &mut Writer) {
        w.seq(&self.schema.attributes, |w, a| a.encode(w));
        w.seq(self.tuples(), |w, t| t.encode(w));
    }
}

impl Decode for Relation {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let attributes = r.seq(Attribute::decode)?;
        let n = r.seq_len()?;
        // every encoded tuple carries at least its u32 arity prefix
        let reserve = n.min(r.remaining() / 4);
        let mut rel = Relation::with_capacity(RelSchema::new(attributes), reserve);
        for _ in 0..n {
            rel.insert(Tuple::decode(r)?);
        }
        Ok(rel)
    }
}

impl Encode for Database {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        w.u64(self.label_watermark());
        let rels: Vec<(&str, &Relation)> = self.relations().collect();
        w.seq(&rels, |w, (name, rel)| {
            w.str(name);
            rel.encode(w);
        });
    }
}

impl Decode for Database {
    fn decode(r: &mut Reader) -> DecodeResult<Self> {
        let name = r.str()?;
        let watermark = r.u64()?;
        let mut db = Database::new(name);
        let n = r.seq_len()?;
        for _ in 0..n {
            let rel_name = r.str()?;
            let rel = Relation::decode(r)?;
            db.insert_relation(rel_name, rel);
        }
        db.set_label_watermark(watermark);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::SchemaBuilder;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let mut r = Reader::new(w.finish());
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(&back, v);
        assert!(r.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn schema_roundtrips() {
        let s = SchemaBuilder::new("ER")
            .entity("Person", &[("Id", DataType::Int), ("Name", DataType::Text)])
            .entity_sub("Employee", "Person", &[("Dept", DataType::Text)])
            .relation("T", &[("a", DataType::Double)])
            .nested("Items", "T", &[("qty", DataType::Int)])
            .association("A", "Person", "Employee", Cardinality::One, Cardinality::Many)
            .key("Person", &["Id"])
            .foreign_key("T", &["a"], "T", &["a"])
            .build()
            .unwrap();
        roundtrip(&s);
    }

    #[test]
    fn expr_roundtrips() {
        use mm_expr::Scalar;
        let e = Expr::base("Names")
            .join(Expr::base("Addresses"), &[("SID", "SID")])
            .select(Predicate::col_eq_lit("Country", "US").or(Predicate::IsNull(Scalar::col("Zip"))))
            .extend("tag", Scalar::Case {
                branches: vec![(Predicate::True, Scalar::lit(1i64))],
                otherwise: Box::new(Scalar::Lit(Lit::Null)),
            })
            .project(&["Name", "tag"])
            .union(Expr::literal_row(&["Name", "tag"], vec![Lit::text("x"), Lit::Int(0)]))
            .distinct()
            .aggregate(
                &["Name"],
                vec![
                    AggSpec::count("n"),
                    AggSpec::of(AggFunc::Sum, "tag", "total"),
                ],
            );
        roundtrip(&e);
    }

    #[test]
    fn mapping_with_all_constraint_kinds_roundtrips() {
        let tgd = Tgd::new(vec![Atom::vars("R", &["x"])], vec![Atom::vars("S", &["x", "y"])]);
        let so = SoTgd::skolemize(std::slice::from_ref(&tgd), "f");
        let m = Mapping::with_constraints(
            "A",
            "B",
            vec![
                MappingConstraint::Tgd(tgd),
                MappingConstraint::SoTgd(so),
                MappingConstraint::ExprEq {
                    source: Expr::base("R").project(&["x"]),
                    target: Expr::base("S"),
                },
            ],
        );
        roundtrip(&m);
    }

    #[test]
    fn correspondences_and_views_roundtrip() {
        let mut cs = CorrespondenceSet::new("S", "T");
        cs.push(Correspondence::new(
            PathRef::attr("A", "x"),
            PathRef::element("B"),
            0.75,
        ));
        roundtrip(&cs);
        let mut vs = ViewSet::new("S", "V");
        vs.push(ViewDef::new("V1", Expr::base("A").rename(&[("x", "y")])));
        roundtrip(&vs);
    }

    #[test]
    fn truncated_buffer_errors_cleanly() {
        let mut w = Writer::new();
        Expr::base("LongRelationName").encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(0..3));
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn unknown_tag_errors_cleanly() {
        let mut w = Writer::new();
        w.u8(99);
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn database_roundtrips_bit_identically() {
        let mut db = Database::new("S");
        let mut rel = Relation::new(RelSchema::of(&[
            ("Id", DataType::Int),
            ("Name", DataType::Text),
        ]));
        rel.insert(Tuple::new(vec![Value::Int(1), Value::text("ada")]));
        rel.insert(Tuple::new(vec![Value::Int(2), Value::Labeled(7)]));
        db.insert_relation("Person", rel);
        db.insert_relation("Empty", Relation::new(RelSchema::of(&[("x", DataType::Any)])));
        db.set_label_watermark(8);
        let mut w = Writer::new();
        db.encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.clone());
        let back = Database::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back.name, db.name);
        assert_eq!(back.label_watermark(), db.label_watermark());
        let mut w2 = Writer::new();
        back.encode(&mut w2);
        assert_eq!(w2.finish(), bytes, "re-encode is bit-identical");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE CRC32 check values
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bytewise table walk: the single oracle for [`crc32`].
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn crc32_slicing_matches_bytewise(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..4097,
            start in 0usize..16,
        ) {
            // one shared buffer, every start offset: exercises each
            // alignment of the 16-byte blocks against the bytewise tail
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..4096 + 16)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let slice = &buf[start..start + len];
            proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn crc32_matches_bytewise_at_every_block_boundary() {
        let buf: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(73) ^ 0x5A) as u8).collect();
        for start in 0..16 {
            for len in 0..=buf.len() - start {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    fn encoded<T: Encode>(v: &T) -> Bytes {
        let mut w = Writer::new();
        v.encode(&mut w);
        w.finish()
    }

    #[test]
    fn text_at_the_intern_bound_decodes_to_the_right_form() {
        use mm_instance::intern::MAX_INTERN_LEN;
        let at = encoded(&Value::Text("a".repeat(MAX_INTERN_LEN)));
        let past = encoded(&Value::Text("b".repeat(MAX_INTERN_LEN + 1)));
        let (v_at, v_past) = mm_instance::intern::with_compact(true, || {
            (
                Value::decode(&mut Reader::new(at.clone())).expect("decode"),
                Value::decode(&mut Reader::new(past.clone())).expect("decode"),
            )
        });
        assert!(matches!(v_at, Value::Sym(_)), "{v_at:?}");
        assert!(matches!(v_past, Value::Text(_)), "{v_past:?}");
        assert_eq!(encoded(&v_at), at);
        assert_eq!(encoded(&v_past), past);
    }

    #[test]
    fn invalid_utf8_text_is_a_decode_error() {
        let mut w = Writer::new();
        w.u8(3); // Value::Text tag
        w.u32(3);
        w.u8(b'o');
        w.u8(0xFF); // never valid in UTF-8
        w.u8(b'k');
        let bytes = w.finish();
        assert!(Value::decode(&mut Reader::new(bytes.clone())).is_err());
        assert!(Reader::new(bytes.slice(1..bytes.len())).str().is_err());
        // a tuple carrying it fails the same way, inline or spilled
        for arity in [1u32, 5] {
            let mut w = Writer::new();
            w.u32(arity);
            for _ in 1..arity {
                Value::Int(0).encode(&mut w);
            }
            let mut body = w.finish().to_vec();
            body.extend_from_slice(&bytes);
            assert!(Tuple::decode(&mut Reader::new(Bytes::from(body))).is_err());
        }
    }

    #[test]
    fn tuples_across_the_inline_boundary_roundtrip_bit_identically() {
        for arity in [0, 4, 5] {
            let vals: Vec<Value> = (0..arity)
                .map(|i| if i % 2 == 0 { Value::Int(i) } else { Value::text(format!("v{i}")) })
                .collect();
            let t = Tuple::new(vals.clone());
            let bytes = encoded(&t);
            let mut r = Reader::new(bytes.clone());
            let back = Tuple::decode(&mut r).expect("decode");
            assert!(r.is_empty());
            assert_eq!(back, t);
            assert_eq!(back.values(), &vals[..]);
            assert_eq!(back.hash64(), mm_instance::hash_values(&vals));
            assert_eq!(encoded(&back), bytes, "arity {arity}");
        }
    }

    #[test]
    fn baseline_decode_reencodes_bit_identically() {
        let mut rel = Relation::new(RelSchema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Text),
            ("c", DataType::Any),
            ("d", DataType::Any),
            ("e", DataType::Any),
        ]));
        for i in 0..20i64 {
            rel.insert(Tuple::new(vec![
                Value::Int(i % 7),
                Value::text(format!("name-{}", i % 5)),
                Value::Labeled(i as u64),
                Value::Null,
                Value::Double(i as f64 / 4.0),
            ]));
        }
        let bytes = encoded(&rel);
        let back = mm_instance::intern::with_compact(false, || {
            Relation::decode(&mut Reader::new(bytes.clone())).expect("decode")
        });
        assert!(back.iter().flat_map(Tuple::values).all(|v| !matches!(v, Value::Sym(_))));
        assert_eq!(back, rel);
        assert_eq!(encoded(&back), bytes);
    }

    #[test]
    fn adversarial_length_prefixes_error_before_allocating() {
        // a str whose length prefix claims u32::MAX bytes
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(b'x');
        let mut r = Reader::new(w.finish());
        assert!(r.str().is_err());

        // an SO-tgd clause count far beyond the buffer
        let mut w = Writer::new();
        w.u32(0); // no functions
        w.u32(u32::MAX); // absurd clause count
        let mut r = Reader::new(w.finish());
        assert!(SoTgd::decode(&mut r).is_err());

        // a literal-table row count beyond the buffer
        let mut w = Writer::new();
        w.u8(1); // Expr::Literal tag
        w.u32(0); // no columns
        w.u32(0x7FFF_FFFF); // absurd row count
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }

    #[test]
    fn corrupt_length_errors_cleanly() {
        let mut w = Writer::new();
        w.u8(0); // Base tag
        w.u32(u32::MAX); // absurd string length
        let mut r = Reader::new(w.finish());
        assert!(Expr::decode(&mut r).is_err());
    }
}

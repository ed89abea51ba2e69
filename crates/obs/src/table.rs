//! The field tables behind the wire format: every event kind (and the
//! `meta` line) is declared once, as a struct plus a [`Field`] table
//! giving, in wire order, each field's key, [`Ty`] and [`Omit`] rule.
//!
//! The tables drive every consumer of the format generically: the JSONL
//! writer ([`crate::jsonl`]), the decoder that turns a JSONL line back
//! into an [`Event`](crate::Event) (and so the validator in
//! [`crate::schema`]), and the Chrome sink's slice and instant args.
//! Adding a field to a record is one line in its table; no consumer
//! names it.

use std::fmt::Write as _;

use crate::json::{escape_into, Value};
use crate::{GcPhase, Hist};

/// A field's wire type.
#[derive(Debug)]
pub enum Ty {
    /// A non-negative integer.
    U64,
    /// An integer within `u16` (allocation-site ids).
    U16,
    /// `true` / `false`.
    Bool,
    /// A string from a closed set.
    Enum(&'static [&'static str]),
    /// A free-form string (the `meta` line's labels and site names).
    Text,
    /// A [`GcPhase`] wire name.
    Phase,
    /// A [`Hist`]: exactly [`HIST_BUCKETS`](crate::HIST_BUCKETS) integers.
    Hist,
    /// An array of integers.
    U64s,
    /// An array of objects, each one row of the nested table.
    Rows(&'static [Field]),
}

/// When a field is left off the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Omit {
    /// Always present.
    Never,
    /// Omitted when zero; absent reads as zero, and an explicit zero is
    /// rejected.
    IfZero,
    /// The worker group: omitted, all together, unless the group's
    /// leading count is above 1. Absent, the count reads as 1 and lists
    /// read empty; present, the count must be at least 2.
    IfSerial,
}

/// One row of a field table.
#[derive(Debug)]
pub struct Field {
    /// The JSON key.
    pub key: &'static str,
    /// The wire type.
    pub ty: Ty,
    /// The omission rule.
    pub omit: Omit,
}

/// A Rust field type that reads and writes as one JSON value.
pub trait Wire {
    /// Writes the value as JSON.
    fn write(&self, out: &mut String);

    /// The value as an integer, for the omission rules.
    fn count(&self) -> Option<u64> {
        None
    }

    /// Reads the value of field `f`; `None` when the key is absent.
    fn read(v: Option<&Value>, f: &Field) -> Result<Self, String>
    where
        Self: Sized;
}

/// A struct declared by a field table.
pub trait Record {
    /// The `type` value on the wire (empty for nested rows).
    const WIRE: &'static str;
    /// The field table, in wire order.
    const FIELDS: &'static [Field];

    /// The field values, in table order.
    fn values(&self) -> Vec<&dyn Wire>;

    /// Builds the record from raw field values in table order.
    fn from_values(values: &[Option<&Value>]) -> Result<Self, String>
    where
        Self: Sized;
}

impl<R: Record> Record for Box<R> {
    const WIRE: &'static str = R::WIRE;
    const FIELDS: &'static [Field] = R::FIELDS;

    fn values(&self) -> Vec<&dyn Wire> {
        (**self).values()
    }

    fn from_values(values: &[Option<&Value>]) -> Result<Self, String> {
        R::from_values(values).map(Box::new)
    }
}

/// Writes `"key":value` for every present field, comma-separated;
/// `comma` says whether the first one needs a leading comma.
pub(crate) fn write_fields<'a>(
    out: &mut String,
    fields: impl IntoIterator<Item = (&'a Field, &'a dyn Wire)>,
    mut comma: bool,
) {
    let mut serial = false;
    for (f, v) in fields {
        let omitted = match f.omit {
            Omit::Never => false,
            Omit::IfZero => v.count() == Some(0),
            Omit::IfSerial => {
                if let Some(n) = v.count() {
                    serial = n <= 1;
                }
                serial
            }
        };
        if omitted {
            continue;
        }
        if comma {
            out.push(',');
        }
        comma = true;
        escape_into(out, f.key);
        out.push(':');
        v.write(out);
    }
}

/// Decodes one JSON object as record `R`: every key must be in the
/// table (or be `type`, on top-level records), every field must read as
/// its wire type, and the omission rules must hold.
pub(crate) fn decode_record<R: Record>(v: &Value) -> Result<R, String> {
    let obj = v.as_object().ok_or("expected a JSON object")?;
    for (key, _) in obj {
        let known =
            R::FIELDS.iter().any(|f| f.key == key) || (key == "type" && !R::WIRE.is_empty());
        if !known {
            return Err(format!("unknown field {key:?}"));
        }
    }
    let values: Vec<Option<&Value>> = R::FIELDS.iter().map(|f| v.get(f.key)).collect();
    let group: Vec<bool> = R::FIELDS
        .iter()
        .zip(&values)
        .filter(|(f, _)| f.omit == Omit::IfSerial)
        .map(|(_, v)| v.is_some())
        .collect();
    if group.contains(&true) && group.contains(&false) {
        return Err("worker fields must appear together".to_string());
    }
    R::from_values(&values)
}

/// The present value of field `f`, read by `get`.
fn typed<'a, T>(
    v: Option<&'a Value>,
    f: &Field,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("missing field {:?}", f.key))?;
    get(v).ok_or_else(|| format!("field {:?} has wrong type", f.key))
}

fn write_u64s(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn read_u64s(v: &Value) -> Option<Vec<u64>> {
    v.as_array()?.iter().map(Value::as_u64).collect()
}

impl Wire for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn count(&self) -> Option<u64> {
        Some(*self)
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<u64, String> {
        match (v, f.omit) {
            (None, Omit::IfZero) => Ok(0),
            (None, Omit::IfSerial) => Ok(1),
            (v, omit) => match (typed(v, f, Value::as_u64)?, omit) {
                (0, Omit::IfZero) => Err(format!("{} present but zero (should be omitted)", f.key)),
                (n, Omit::IfSerial) if n < 2 => {
                    Err(format!("worker fields present but {} is {n} (< 2)", f.key))
                }
                (n, _) => Ok(n),
            },
        }
    }
}

impl Wire for u16 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<u16, String> {
        let n = typed(v, f, Value::as_u64)?;
        u16::try_from(n).map_err(|_| format!("{} {n} out of range", f.key))
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<bool, String> {
        typed(v, f, Value::as_bool)
    }
}

/// A closed-set string: decodes to the set's own `&'static str`.
impl Wire for &'static str {
    fn write(&self, out: &mut String) {
        escape_into(out, self);
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<&'static str, String> {
        let s = typed(v, f, Value::as_str)?;
        let Ty::Enum(set) = f.ty else {
            unreachable!("a &'static str field is a closed set")
        };
        set.iter()
            .find(|&&member| member == s)
            .copied()
            .ok_or_else(|| format!("unknown {} {s:?}", f.key))
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        escape_into(out, self);
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<String, String> {
        typed(v, f, Value::as_str).map(str::to_string)
    }
}

impl Wire for GcPhase {
    fn write(&self, out: &mut String) {
        escape_into(out, self.wire_name());
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<GcPhase, String> {
        let s = typed(v, f, Value::as_str)?;
        GcPhase::ALL
            .into_iter()
            .find(|p| p.wire_name() == s)
            .ok_or_else(|| format!("unknown {} {s:?}", f.key))
    }
}

impl Wire for Hist {
    fn write(&self, out: &mut String) {
        write_u64s(out, &self.buckets);
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<Hist, String> {
        typed(v, f, |v| {
            let buckets = read_u64s(v)?.try_into().ok()?;
            Some(Hist { buckets })
        })
    }
}

impl Wire for Vec<u64> {
    fn write(&self, out: &mut String) {
        write_u64s(out, self);
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<Vec<u64>, String> {
        if v.is_none() && f.omit == Omit::IfSerial {
            return Ok(Vec::new());
        }
        typed(v, f, read_u64s)
    }
}

/// Rows of a nested table.
impl<R: Record> Wire for Vec<R> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, row) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            write_fields(out, R::FIELDS.iter().zip(row.values()), false);
            out.push('}');
        }
        out.push(']');
    }

    fn read(v: Option<&Value>, f: &Field) -> Result<Vec<R>, String> {
        typed(v, f, Value::as_array)?
            .iter()
            .map(decode_record::<R>)
            .collect()
    }
}

/// The Rust type of a wire type.
macro_rules! rust_ty {
    (U64) => { u64 };
    (U16) => { u16 };
    (Bool) => { bool };
    (Enum) => { &'static str };
    (Text) => { String };
    (Phase) => { $crate::GcPhase };
    (Hist) => { $crate::Hist };
    (U64s) => { Vec<u64> };
    (Rows $row:ident) => { Vec<$row> };
}

/// The [`Ty`] of a wire type.
macro_rules! wire_ty {
    (Enum [$($member:literal),*]) => { $crate::table::Ty::Enum(&[$($member),*]) };
    (Rows ($row:ident)) => { $crate::table::Ty::Rows(<$row as $crate::table::Record>::FIELDS) };
    ($ty:ident) => { $crate::table::Ty::$ty };
}

/// The [`Omit`] rule of a field (`Never` unless one is named).
macro_rules! omit_rule {
    () => {
        $crate::table::Omit::Never
    };
    ($omit:ident) => {
        $crate::table::Omit::$omit
    };
}

/// Declares records from their field tables. Each record is written as
///
/// ```text
/// pub struct Name = "wire-name" {
///     key: Ty,                          // always present
///     key: Enum["a", "b"],              // closed string set
///     key: Rows(RowType),               // nested table
///     key: U64 omit IfZero,             // omission rule
/// }
/// ```
///
/// (the `= "wire-name"` is left off for nested rows) and becomes a
/// public struct with one public field per row, in wire order, plus its
/// [`Record`] impl.
macro_rules! records {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident $(= $wire:literal)? {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ident $([$($member:literal),*])? $(($row:ident))?
                    $(omit $omit:ident)?,
            )*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: rust_ty!($ty $($row)?),
            )*
        }

        impl $crate::table::Record for $name {
            const WIRE: &'static str = concat!("" $(, $wire)?);
            const FIELDS: &'static [$crate::table::Field] = &[$(
                $crate::table::Field {
                    key: stringify!($field),
                    ty: wire_ty!($ty $([$($member),*])? $(($row))?),
                    omit: omit_rule!($($omit)?),
                },
            )*];

            fn values(&self) -> Vec<&dyn $crate::table::Wire> {
                vec![$(&self.$field),*]
            }

            fn from_values(
                values: &[Option<&$crate::json::Value>],
            ) -> Result<Self, String> {
                let mut fields = Self::FIELDS.iter().zip(values);
                Ok($name {$($field: {
                    let (f, v) = fields.next().expect("one value per field");
                    $crate::table::Wire::read(*v, f)?
                },)*})
            }
        }
    )*};
}

/// Declares the [`Event`](crate::Event) enum, one variant per record,
/// with its wire-name dispatch.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {$(
            $(#[$vmeta:meta])*
            $variant:ident($ty:ty),
        )*}
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum $name {$(
            $(#[$vmeta])*
            $variant($ty),
        )*}

        impl $name {
            /// The event's wire name (its `type` value).
            pub fn wire_name(&self) -> &'static str {
                match self {$(
                    $name::$variant(_) => <$ty as $crate::table::Record>::WIRE,
                )*}
            }

            /// The event's field table and values.
            pub(crate) fn fields(
                &self,
            ) -> (&'static [$crate::table::Field], Vec<&dyn $crate::table::Wire>) {
                match self {$(
                    $name::$variant(e) => (
                        <$ty as $crate::table::Record>::FIELDS,
                        $crate::table::Record::values(e),
                    ),
                )*}
            }

            /// Decodes a JSON object whose `type` is `kind`; `None` when
            /// no event kind has that wire name.
            pub(crate) fn decode(
                kind: &str,
                v: &$crate::json::Value,
            ) -> Option<Result<$name, String>> {
                $(if kind == <$ty as $crate::table::Record>::WIRE {
                    return Some($crate::table::decode_record::<$ty>(v).map($name::$variant));
                })*
                None
            }
        }
    };
}

//! Schemas: named, typed attributes.

/// Coarse attribute type, inferred by profiling when loading raw data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// Free-form text.
    Str,
    /// Numeric (integer or float).
    Num,
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (unique within a schema).
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

/// An ordered list of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics if two attributes share a name.
    pub fn new(attrs: impl IntoIterator<Item = (impl Into<String>, AttrType)>) -> Self {
        let attrs: Vec<Attribute> = attrs
            .into_iter()
            .map(|(name, ty)| Attribute {
                name: name.into(),
                ty,
            })
            .collect();
        let mut names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), attrs.len(), "duplicate attribute names");
        Self { attrs }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Attributes in declaration order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Index of an attribute by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Attribute at an index.
    pub fn attr(&self, idx: usize) -> &Attribute {
        &self.attrs[idx]
    }

    /// Attribute names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.attrs.iter().map(|a| a.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new([("title", AttrType::Str), ("price", AttrType::Num)]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("price"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.attr(0).name, "title");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        Schema::new([("a", AttrType::Str), ("a", AttrType::Num)]);
    }
}

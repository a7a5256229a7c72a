//! Concrete layer implementations.

pub mod activation;
pub mod conv2d;
pub mod dense;
pub mod flatten;
pub mod pool;

pub use activation::Relu;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

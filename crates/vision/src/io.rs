//! Binary PGM (P5) and PPM (P6) image I/O.
//!
//! Every figure-regeneration binary dumps its qualitative outputs (VBP
//! masks, reconstructions, perturbed frames) in these formats so results
//! can be inspected with any image viewer without adding a heavyweight
//! image dependency.

use std::io::{BufRead, Read, Write};
use std::path::Path;

use crate::{Image, Result, RgbImage, VisionError};

fn quantize(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Writes a grayscale image as binary PGM (P5), mapping `[0, 1]` to 0–255.
///
/// # Errors
///
/// Propagates any I/O failure.
pub fn write_pgm(img: &Image, writer: &mut impl Write) -> Result<()> {
    write!(writer, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let bytes: Vec<u8> = img.as_slice().iter().map(|&v| quantize(v)).collect();
    writer.write_all(&bytes)?;
    Ok(())
}

/// Writes a grayscale image to a PGM file at `path`.
///
/// # Errors
///
/// Propagates any I/O failure.
pub fn save_pgm(img: &Image, path: impl AsRef<Path>) -> Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_pgm(img, &mut file)
}

/// Writes a colour image as binary PPM (P6), mapping `[0, 1]` to 0–255.
///
/// # Errors
///
/// Propagates any I/O failure.
pub fn write_ppm(img: &RgbImage, writer: &mut impl Write) -> Result<()> {
    write!(writer, "P6\n{} {}\n255\n", img.width(), img.height())?;
    let mut bytes = Vec::with_capacity(img.width() * img.height() * 3);
    for y in 0..img.height() {
        for x in 0..img.width() {
            let [r, g, b] = img.get(y, x);
            bytes.push(quantize(r));
            bytes.push(quantize(g));
            bytes.push(quantize(b));
        }
    }
    writer.write_all(&bytes)?;
    Ok(())
}

/// Writes a colour image to a PPM file at `path`.
///
/// # Errors
///
/// Propagates any I/O failure.
pub fn save_ppm(img: &RgbImage, path: impl AsRef<Path>) -> Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_ppm(img, &mut file)
}

fn read_token(reader: &mut impl BufRead) -> Result<String> {
    let mut token = String::new();
    let mut in_comment = false;
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof && !token.is_empty() => {
                return Ok(token)
            }
            Err(e) => return Err(e.into()),
        }
        let c = byte[0] as char;
        if in_comment {
            if c == '\n' {
                in_comment = false;
            }
            continue;
        }
        if c == '#' {
            in_comment = true;
            continue;
        }
        if c.is_whitespace() {
            if token.is_empty() {
                continue;
            }
            return Ok(token);
        }
        token.push(c);
    }
}

fn parse_dim(token: &str, what: &str) -> Result<usize> {
    token
        .parse::<usize>()
        .map_err(|_| VisionError::Format(format!("invalid {what}: {token:?}")))
}

/// Reads a binary PGM (P5) image, mapping 0–255 back to `[0, 1]`.
///
/// # Errors
///
/// Fails on I/O errors or malformed headers (wrong magic, zero dimensions,
/// a pixel count that overflows `usize`, non-255 maxval, truncated pixel
/// data). The header is not trusted for allocation: the pixel buffer
/// grows only by the bytes that actually arrive.
pub fn read_pgm(reader: &mut impl BufRead) -> Result<Image> {
    let magic = read_token(reader)?;
    if magic != "P5" {
        return Err(VisionError::Format(format!(
            "expected magic P5, got {magic:?}"
        )));
    }
    let width = parse_dim(&read_token(reader)?, "width")?;
    let height = parse_dim(&read_token(reader)?, "height")?;
    let maxval = parse_dim(&read_token(reader)?, "maxval")?;
    if width == 0 || height == 0 {
        return Err(VisionError::Format("zero image dimension".into()));
    }
    if maxval != 255 {
        return Err(VisionError::Format(format!(
            "only maxval 255 is supported, got {maxval}"
        )));
    }
    let len = width
        .checked_mul(height)
        .ok_or_else(|| VisionError::Format(format!("pixel count of {width}x{height} overflows")))?;
    let mut bytes = Vec::new();
    reader.take(len as u64).read_to_end(&mut bytes)?;
    if bytes.len() != len {
        return Err(VisionError::Format("truncated pixel data".into()));
    }
    let mut img = Image::new(height, width)?;
    for (dst, &src) in img.as_mut_slice().iter_mut().zip(&bytes) {
        *dst = src as f32 / 255.0;
    }
    Ok(img)
}

/// Reads a PGM file from `path`.
///
/// # Errors
///
/// See [`read_pgm`].
pub fn load_pgm(path: impl AsRef<Path>) -> Result<Image> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    read_pgm(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn pgm_roundtrip_preserves_quantized_pixels() {
        let img = Image::from_fn(5, 7, |y, x| (y * 7 + x) as f32 / 34.0).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.height(), 5);
        assert_eq!(back.width(), 7);
        for (a, b) in back.as_slice().iter().zip(img.as_slice()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn pgm_clamps_out_of_range_values() {
        let img = Image::from_fn(1, 2, |_, x| if x == 0 { -1.0 } else { 2.0 }).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        let back = read_pgm(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.get(0, 0), 0.0);
        assert_eq!(back.get(0, 1), 1.0);
    }

    #[test]
    fn pgm_header_is_canonical() {
        let img = Image::new(2, 3).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(buf.len(), "P5\n3 2\n255\n".len() + 6);
    }

    #[test]
    fn read_pgm_accepts_comments() {
        let data = b"P5 # a comment\n# another\n2 1\n255\n\x00\xff";
        let img = read_pgm(&mut Cursor::new(&data[..])).unwrap();
        assert_eq!(img.get(0, 0), 0.0);
        assert_eq!(img.get(0, 1), 1.0);
    }

    #[test]
    fn read_pgm_rejects_malformed_streams() {
        for bad in [
            &b"P6\n1 1\n255\n\x00"[..],
            &b"P5\n0 1\n255\n"[..],
            &b"P5\n1 1\n65535\n\x00\x00"[..],
            &b"P5\n2 2\n255\n\x00"[..],
            &b"P5\nx 1\n255\n\x00"[..],
        ] {
            assert!(read_pgm(&mut Cursor::new(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn read_pgm_rejects_overflowing_header() {
        let data = format!("P5\n{} 2\n255\n\x00\x00", usize::MAX);
        let err = read_pgm(&mut Cursor::new(data.as_bytes())).unwrap_err();
        assert!(matches!(err, VisionError::Format(_)), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    /// A 20-byte stream that claims 60000×60000 pixels fails as truncated
    /// without allocating what the header claims.
    #[test]
    fn read_pgm_rejects_huge_claim_on_truncated_stream() {
        let data = b"P5\n60000 60000\n255\n\x00";
        assert_eq!(data.len(), 20);
        let err = read_pgm(&mut Cursor::new(&data[..])).unwrap_err();
        assert!(matches!(err, VisionError::Format(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn ppm_has_canonical_header_and_size() {
        let mut img = RgbImage::new(2, 2).unwrap();
        img.put(0, 0, [1.0, 0.5, 0.0]);
        let mut buf = Vec::new();
        write_ppm(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(buf.len(), "P6\n2 2\n255\n".len() + 12);
        // First pixel bytes: 255, 128, 0.
        let off = "P6\n2 2\n255\n".len();
        assert_eq!(buf[off], 255);
        assert_eq!(buf[off + 1], 128);
        assert_eq!(buf[off + 2], 0);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("saliency_novelty_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let img = Image::from_fn(3, 3, |y, x| (y * 3 + x) as f32 / 8.0).unwrap();
        save_pgm(&img, &path).unwrap();
        let back = load_pgm(&path).unwrap();
        assert_eq!(back.height(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
